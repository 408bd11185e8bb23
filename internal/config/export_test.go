package config

import "encoding/json"

// MarshalReference is json.Marshal of M's reflection-encoded wire shape:
// the bytes AppendJSON must reproduce.
func MarshalReference(m M) ([]byte, error) { return json.Marshal(mJSON(m)) }
