package obs

import (
	"sync"
	"time"

	"heteromap/internal/config"
	"heteromap/internal/feature"
	"heteromap/internal/predict"
)

// Provenance explains one served prediction after the fact: which
// learner in the fallback chain answered, how it decided (decision-tree
// path or NN margin), the exact M1 + M2–M20 knobs returned, and every
// resilience event that altered the answer. Records are keyed by trace
// id and served from /v1/explain/{trace-id}; a batch request yields one
// record per item under the shared trace id.
type Provenance struct {
	TraceID string `json:"trace_id"`
	Model   string `json:"model"`
	Version uint64 `json:"version"`
	// PredictorUsed is the fallback-chain link that produced the answer
	// (e.g. "nn", "dtree", "default").
	PredictorUsed string `json:"predictor_used"`
	// DTreePath lists the decision-tree branches taken, when the
	// answering link is the tree.
	DTreePath []string `json:"dtree_path,omitempty"`
	// NNMargin is the network's distance from the accelerator decision
	// boundary, when the answering link is the NN.
	NNMargin *float64 `json:"nn_margin,omitempty"`
	// M is the full configuration returned to the client.
	M config.M `json:"m"`
	// Cached reports whether the answer came from the prediction cache
	// (the knobs were computed by an earlier request).
	Cached bool `json:"cached"`
	// Events lists fallback-chain degradations and resilience decisions
	// (breaker routing, uncertainty probes) in pipeline order.
	Events []string  `json:"events,omitempty"`
	When   time.Time `json:"when"`
	// Link is the learner that answered, from the snapshot that answered
	// (a breaker-routed answer keeps the last-known-good's link), and
	// Features the characterization it saw. Get derives DTreePath and
	// NNMargin from them when the record is read, so serving pays for no
	// learner work beyond the answer itself. Holding Link pins that
	// snapshot until the record is evicted.
	Link     predict.Predictor `json:"-"`
	Features feature.Vector    `json:"-"`
}

// derive fills the learner detail from Link and Features: the decision
// path for a tree, the M1 margin for a network. A record without a
// link (a probe answer, or one built by hand) keeps what it carries.
func (p *Provenance) derive() {
	switch l := p.Link.(type) {
	case interface {
		ExplainPredict(feature.Vector) (config.M, []string)
	}:
		_, p.DTreePath = l.ExplainPredict(p.Features)
	case interface{ M1Margin(feature.Vector) float64 }:
		margin := l.M1Margin(p.Features)
		p.NNMargin = &margin
	}
}

// ProvStore holds recent provenance records keyed by trace id, bounded
// by record count with FIFO eviction of whole trace ids (batch items
// under one id are evicted together).
type ProvStore struct {
	mu    sync.Mutex
	max   int
	count int
	byID  map[string][]Provenance
	order []string // trace ids oldest first, one entry per id
}

// NewProvStore builds a store retaining up to max records.
func NewProvStore(max int) *ProvStore {
	if max <= 0 {
		max = 4096
	}
	return &ProvStore{max: max, byID: make(map[string][]Provenance)}
}

// Add retains records under one lock, evicting the oldest trace ids as
// needed. Each run of records that share a trace id joins that id's
// records with one append; a new id keeps the run in recs' own backing
// array, so the caller must not change recs after the call. Records
// without a trace id are dropped (nothing could query them).
func (s *ProvStore) Add(recs ...Provenance) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(recs) > 0 {
		id, n := recs[0].TraceID, 1
		for n < len(recs) && recs[n].TraceID == id {
			n++
		}
		if id != "" {
			s.addLocked(id, recs[:n:n])
		}
		recs = recs[n:]
	}
}

func (s *ProvStore) addLocked(id string, run []Provenance) {
	s.count += len(run)
	if old, ok := s.byID[id]; ok {
		run = append(old, run...)
	} else {
		s.order = append(s.order, id)
	}
	s.byID[id] = run
	for s.count > s.max && len(s.order) > 0 {
		oldest := s.order[0]
		s.order = s.order[1:]
		s.count -= len(s.byID[oldest])
		delete(s.byID, oldest)
	}
}

// Get returns copies of the records served under traceID with their
// learner detail derived (nil if unknown or evicted). Deriving runs
// outside the lock: explaining a 32-item network batch is 32 forward
// passes, which must not stall the serve path's Add.
func (s *ProvStore) Get(traceID string) []Provenance {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	recs := s.byID[traceID]
	out := make([]Provenance, len(recs))
	copy(out, recs)
	s.mu.Unlock()
	if len(out) == 0 {
		return nil
	}
	for i := range out {
		out[i].derive()
	}
	return out
}

// Len reports the retained record count.
func (s *ProvStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}
