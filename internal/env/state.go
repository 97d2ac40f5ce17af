package env

import "fmt"

// TrainEnv is the contract the parallel training pipeline needs on top of
// the Gym-like Interface: cloning (one independent copy per rollout worker),
// deterministic reseeding of any internal randomness, a training budget for
// curriculum progress, and a serialisable episode state so a checkpointed
// run resumes bit-identically. Env and MultiEnv both implement it.
type TrainEnv interface {
	Interface
	// Clone returns an independent copy sharing the immutable pieces
	// (graphs, demand sequences, LP cache) with fresh episode state.
	Clone() TrainEnv
	// Reseed re-seeds the environment's internal random stream (episode
	// sampling); a no-op for environments without one.
	Reseed(seed int64)
	// SetBudget declares how many Step calls this environment will serve
	// over the whole training run, driving curriculum progress; a no-op for
	// environments without samplers.
	SetBudget(steps int)
	// State captures the resumable episode state.
	State() State
	// Restore rewinds to a state captured with State.
	Restore(State) error
	// Observation rebuilds the current observation from the episode state.
	// It errors when no episode is in progress.
	Observation() (*Observation, error)
}

// State is the JSON-serialisable episode state of a training environment:
// enough to rebuild the exact observation stream of an interrupted run.
// For a bare Env, Member is -1 and the MultiEnv fields are zero.
type State struct {
	Member   int    `json:"member"`             // MultiEnv member of the running episode; -1 if none
	Episodes int    `json:"episodes,omitempty"` // MultiEnv episodes started
	Steps    int    `json:"steps,omitempty"`    // MultiEnv steps taken
	RNG      uint64 `json:"rng,omitempty"`      // MultiEnv sampler stream state

	T          int       `json:"t"` // index of the DM routed next
	IterEdge   int       `json:"iter_edge,omitempty"`
	Pending    []float64 `json:"pending,omitempty"`
	PendingSet []bool    `json:"pending_set,omitempty"`
}

var _ TrainEnv = (*Env)(nil)

// Clone returns an independent environment over the same graph, sequence,
// and shared LP cache (the cache is concurrency-safe), with fresh episode
// state. Parallel rollout workers each step their own clone.
func (e *Env) Clone() TrainEnv {
	return &Env{g: e.g, seq: e.seq, cfg: e.cfg, opt: e.opt, ctx: e.ctx, base: e.base}
}

// Reseed implements TrainEnv; a bare Env draws no randomness.
func (e *Env) Reseed(int64) {}

// SetBudget implements TrainEnv; a bare Env tracks no curriculum progress.
func (e *Env) SetBudget(int) {}

// inEpisode reports whether an episode is in progress (Reset has run and
// the sequence is not exhausted).
func (e *Env) inEpisode() bool { return e.t >= e.cfg.Memory && e.t < len(e.seq) }

// State implements TrainEnv.
func (e *Env) State() State {
	return State{
		Member:     -1,
		T:          e.t,
		IterEdge:   e.dec.edge,
		Pending:    append([]float64(nil), e.dec.pending...),
		PendingSet: append([]bool(nil), e.dec.set...),
	}
}

// Restore implements TrainEnv.
func (e *Env) Restore(st State) error {
	if st.T < 0 || st.T > len(e.seq) {
		return fmt.Errorf("env: restore t=%d outside [0,%d]", st.T, len(e.seq))
	}
	ne := e.g.NumEdges()
	if st.Pending != nil && len(st.Pending) != ne {
		return fmt.Errorf("env: restore has %d pending weights, graph has %d edges", len(st.Pending), ne)
	}
	if st.PendingSet != nil && len(st.PendingSet) != ne {
		return fmt.Errorf("env: restore has %d pending flags, graph has %d edges", len(st.PendingSet), ne)
	}
	if st.IterEdge < 0 || st.IterEdge >= max(1, ne) {
		return fmt.Errorf("env: restore iter edge %d outside [0,%d)", st.IterEdge, ne)
	}
	e.t = st.T
	e.dec = newDecoder(ne)
	copy(e.dec.pending, st.Pending)
	copy(e.dec.set, st.PendingSet)
	e.dec.edge = st.IterEdge
	return nil
}

// Observation implements TrainEnv: it rebuilds the observation the next
// Step expects, a pure function of the restored episode state.
func (e *Env) Observation() (*Observation, error) {
	if !e.inEpisode() {
		return nil, fmt.Errorf("env: no episode in progress (t=%d)", e.t)
	}
	return e.observe()
}
