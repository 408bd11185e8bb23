package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"heteromap/internal/fault"
	"heteromap/internal/feature"
	"heteromap/internal/machine"
	"heteromap/internal/predict"
	"heteromap/internal/predict/dtree"
	"heteromap/internal/train"
)

// Model is one immutable registry entry: a predictor fronted by the
// fault package's fallback chain, guarded by a per-version circuit
// breaker. In-flight requests hold the *Model they resolved; a hot-swap
// installs a fresh entry without touching the old one, so swapping never
// corrupts requests already being served.
type Model struct {
	// Name is the registry key.
	Name string
	// Version increments monotonically across the whole registry on
	// every (re)registration, so cache keys from a replaced model can
	// never alias the new one's.
	Version uint64
	// Source describes where the model came from, for /v1/models.
	Source string

	chain   *fault.Chain
	breaker *fault.Breaker
}

// Select consults the model's fallback chain.
func (m *Model) Select(f feature.Vector) fault.Selection {
	return m.chain.Select(f)
}

// SelectBatchCtx consults the chain once for many rows; see
// fault.Chain.SelectBatchCtx for the equivalence contract.
func (m *Model) SelectBatchCtx(ctx context.Context, feats []feature.Vector, dst []fault.Selection) {
	m.chain.SelectBatchCtx(ctx, feats, dst)
}

// PredictorName names the chain's primary predictor.
func (m *Model) PredictorName() string { return m.chain.Name() }

// Link returns the chain predictor with the given name, or nil — the
// provenance layer uses it to re-derive learner-specific detail (tree
// decision path, NN margin) for the link that answered a request.
func (m *Model) Link(name string) predict.Predictor {
	for _, p := range m.chain.Predictors {
		if p != nil && p.Name() == name {
			return p
		}
	}
	return nil
}

// Breaker returns the model version's circuit breaker.
func (m *Model) Breaker() *fault.Breaker { return m.breaker }

// ModelInfo is the /v1/models wire representation of an entry.
type ModelInfo struct {
	Name      string `json:"name"`
	Version   uint64 `json:"version"`
	Predictor string `json:"predictor"`
	Source    string `json:"source"`
	Default   bool   `json:"default"`
	// Breaker is the version's circuit state: closed, open or half-open.
	Breaker string `json:"breaker"`
	// LastGoodVersion is the previous healthy version misses route to
	// when this version's breaker trips (0: none).
	LastGoodVersion uint64 `json:"last_good_version,omitempty"`
}

// QuarantineInfo records one rejected reload: the candidate version that
// failed admission (canary mismatch, latency SLO breach, corrupt or
// empty snapshot) and why. Quarantined versions never served traffic.
type QuarantineInfo struct {
	Name    string    `json:"name"`
	Version uint64    `json:"version,omitempty"`
	Source  string    `json:"source"`
	Reason  string    `json:"reason"`
	When    time.Time `json:"when"`
}

// maxQuarantine bounds the quarantine history kept for /v1/models.
const maxQuarantine = 32

// ErrCanaryRejected marks reload failures where the candidate loaded
// cleanly but failed canary validation; the HTTP layer maps it to 422.
var ErrCanaryRejected = errors.New("serve: canary rejected candidate snapshot")

// Registry holds the named, versioned predictors a server dispatches to.
// Reads take a shared lock and return immutable *Model snapshots;
// registration replaces the map entry atomically under the write lock —
// the hot-swap path. For every name the previously active snapshot is
// retained as last-known-good, the routing target when the current
// version's breaker trips.
type Registry struct {
	pair machine.Pair

	mu          sync.RWMutex
	models      map[string]*Model
	lastGood    map[string]*Model
	quarantine  []QuarantineInfo
	defaultName string

	breakerThreshold int
	breakerCooldown  int

	version atomic.Uint64
}

// NewRegistry builds an empty registry for an accelerator pair.
func NewRegistry(pair machine.Pair) *Registry {
	return &Registry{
		pair:             pair,
		models:           make(map[string]*Model),
		lastGood:         make(map[string]*Model),
		breakerThreshold: 5,
		breakerCooldown:  64,
	}
}

// SetBreakerPolicy configures the per-version circuit breakers cut into
// future registrations: threshold consecutive SLO violations open the
// circuit, cooldown refused dispatches admit a half-open probe.
// threshold <= 0 disables tripping. Existing models keep their breakers.
func (r *Registry) SetBreakerPolicy(threshold, cooldown int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.breakerThreshold = threshold
	r.breakerCooldown = cooldown
}

// Pair returns the registry's accelerator pair.
func (r *Registry) Pair() machine.Pair { return r.pair }

// newModel assembles a candidate entry without installing it: the staged
// half of a canary-validated reload. The predictor is wrapped in a
// fallback chain ending, as everywhere else, in the analytical decision
// tree and a fixed deployable default — a served prediction is never
// trusted unconditionally.
func (r *Registry) newModel(name, source string, p predict.Predictor, fallbacks ...predict.Predictor) (*Model, error) {
	if name == "" {
		return nil, fmt.Errorf("serve: model name must not be empty")
	}
	if p == nil {
		return nil, fmt.Errorf("serve: model %q: nil predictor", name)
	}
	limits := r.pair.Limits()
	preds := append([]predict.Predictor{p}, fallbacks...)
	if _, isTree := p.(*dtree.Tree); !isTree {
		preds = append(preds, dtree.New(limits))
	}
	r.mu.RLock()
	threshold, cooldown := r.breakerThreshold, r.breakerCooldown
	r.mu.RUnlock()
	return &Model{
		Name:    name,
		Version: r.version.Add(1),
		Source:  source,
		chain:   fault.NewChain(limits, preds...),
		breaker: fault.NewBreaker(threshold, cooldown),
	}, nil
}

// install makes a staged model the active entry for its name, demoting
// the previous snapshot to last-known-good.
func (r *Registry) install(m *Model) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.models[m.Name]; ok {
		r.lastGood[m.Name] = old
	}
	r.models[m.Name] = m
	if r.defaultName == "" {
		r.defaultName = m.Name
	}
}

// Register installs (or hot-swaps) a model under name. The first
// registration becomes the default model.
func (r *Registry) Register(name, source string, p predict.Predictor, fallbacks ...predict.Predictor) (*Model, error) {
	m, err := r.newModel(name, source, p, fallbacks...)
	if err != nil {
		return nil, err
	}
	r.install(m)
	return m, nil
}

// Get resolves a model by name; the empty name selects the default.
func (r *Registry) Get(name string) (*Model, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if name == "" {
		name = r.defaultName
	}
	if m, ok := r.models[name]; ok {
		return m, nil
	}
	return nil, fmt.Errorf("serve: unknown model %q", name)
}

// LastGood resolves a name's previous healthy snapshot — the
// breaker-routing target. Nil when the name has never been swapped.
func (r *Registry) LastGood(name string) *Model {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.lastGood[name]
}

// DefaultVersion returns the version of the default model (0 when the
// registry is empty) — the generation number cluster routers compare
// across peers so a rolling reload never hedges one request against two
// different model versions.
func (r *Registry) DefaultVersion() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if m, ok := r.models[r.defaultName]; ok {
		return m.Version
	}
	return 0
}

// SetDefault changes which model the empty name resolves to.
func (r *Registry) SetDefault(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.models[name]; !ok {
		return fmt.Errorf("serve: unknown model %q", name)
	}
	r.defaultName = name
	return nil
}

// Quarantine records a rejected candidate without installing anything,
// keeping the newest maxQuarantine entries.
func (r *Registry) Quarantine(info QuarantineInfo) {
	if info.When.IsZero() {
		info.When = time.Now()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.quarantine = append(r.quarantine, info)
	if len(r.quarantine) > maxQuarantine {
		r.quarantine = r.quarantine[len(r.quarantine)-maxQuarantine:]
	}
}

// Quarantined returns the rejected-reload history, newest last.
func (r *Registry) Quarantined() []QuarantineInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]QuarantineInfo, len(r.quarantine))
	copy(out, r.quarantine)
	return out
}

// List describes every registered model, sorted by name.
func (r *Registry) List() []ModelInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]ModelInfo, 0, len(r.models))
	for _, m := range r.models {
		info := ModelInfo{
			Name:      m.Name,
			Version:   m.Version,
			Predictor: m.PredictorName(),
			Source:    m.Source,
			Default:   m.Name == r.defaultName,
			Breaker:   m.breaker.State().String(),
		}
		if lg := r.lastGood[m.Name]; lg != nil {
			info.LastGoodVersion = lg.Version
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// VersionCounter returns the registry-wide monotonic version counter's
// current value — the floor a durable cache snapshot records so a
// restarted registry never reissues a pre-crash version number.
func (r *Registry) VersionCounter() uint64 { return r.version.Load() }

// EnsureVersionFloor raises the version counter to at least v. Restart
// recovery calls it with the persisted pre-crash counter, so versions
// stay monotone across the crash: a router that saw version 40 die can
// never meet a reborn version 2.
func (r *Registry) EnsureVersionFloor(v uint64) {
	for {
		cur := r.version.Load()
		if cur >= v || r.version.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Restamp reissues a name's active entry under a fresh version number
// without touching its predictor chain, breaker, or last-known-good
// entry. Recovery restamps models registered before the version floor
// was restored, lifting them above every pre-crash version.
func (r *Registry) Restamp(name string) (*Model, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.models[name]
	if !ok {
		return nil, fmt.Errorf("serve: unknown model %q", name)
	}
	nm := &Model{
		Name:    m.Name,
		Version: r.version.Add(1),
		Source:  m.Source,
		chain:   m.chain,
		breaker: m.breaker,
	}
	r.models[name] = nm
	return nm, nil
}

// loadDBPredictor loads and sanity-checks a profiler database file.
func (r *Registry) loadDBPredictor(name, path string) (predict.Predictor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("serve: reload %q: %w", name, err)
	}
	defer f.Close()
	db, err := train.LoadDB(f)
	if err != nil {
		return nil, fmt.Errorf("serve: reload %q: %w", name, err)
	}
	if len(db.Samples) == 0 {
		return nil, fmt.Errorf("serve: reload %q: database %s holds no samples", name, path)
	}
	if db.Pair.Name() != r.pair.Name() {
		return nil, fmt.Errorf("serve: reload %q: database is for pair %q, server runs %q",
			name, db.Pair.Name(), r.pair.Name())
	}
	return train.NewLookupPredictor(db), nil
}

// ReloadDB hot-swaps name with a DB-lookup predictor loaded from a
// profiler database file on disk (written by hmtrain -out), without
// canary validation. The load and sanity checks happen before the swap,
// so a bad file leaves the currently served model untouched.
func (r *Registry) ReloadDB(name, path string) (*Model, error) {
	m, _, err := r.ReloadDBValidated(name, path, nil)
	return m, err
}

// ReloadDBValidated is the canary-gated reload: the candidate snapshot
// is staged (loaded, sanity-checked, assigned its version) and run
// against the golden set; only a passing candidate is installed. A
// failing candidate is quarantined — the active snapshot and the
// prediction cache never see it, which *is* the rollback: traffic keeps
// flowing to the previous version, byte-identically.
func (r *Registry) ReloadDBValidated(name, path string, canary *CanaryConfig) (*Model, CanaryReport, error) {
	p, err := r.loadDBPredictor(name, path)
	if err != nil {
		r.Quarantine(QuarantineInfo{Name: name, Source: "db:" + path, Reason: err.Error()})
		return nil, CanaryReport{}, err
	}
	candidate, err := r.newModel(name, "db:"+path, p)
	if err != nil {
		return nil, CanaryReport{}, err
	}
	rep, err := canary.Validate(candidate)
	if err != nil {
		r.Quarantine(QuarantineInfo{
			Name: name, Version: candidate.Version, Source: candidate.Source,
			Reason: err.Error(),
		})
		return nil, rep, fmt.Errorf("%w: %v", ErrCanaryRejected, err)
	}
	r.install(candidate)
	return candidate, rep, nil
}
