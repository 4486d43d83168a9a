// Package comms models the inter-drone communication system of a
// distributed swarm (step 2 of the periodic loop in Fig. 1 of the
// paper): each tick, every member broadcasts its perceived physical
// state, and receives the states of the other members.
//
// The paper — like SwarmLab — assumes perfect, instantaneous state
// exchange, which PerfectBus implements. LossyBus and DelayedBus model
// degraded links (dropped or late packets, with receivers acting on the
// last state they heard), and are used by failure-injection tests and
// the communication-sensitivity extension experiments. All buses are
// deterministic given their construction parameters.
//
// Buses expose two views of the same exchange. ExchangeInto is the hot
// path: it writes all observations into one flat reusable arena owned
// by the bus and returns slices that alias it, so a steady-state
// simulation tick allocates nothing. Exchange is the compatibility
// wrapper that deep-copies the arena into fresh slices. A bus instance
// is not safe for concurrent use.
package comms

import (
	"fmt"

	"swarmfuzz/internal/rng"
	"swarmfuzz/internal/vec"
)

// State is the physical state a swarm member broadcasts: its perceived
// (GPS) position and current velocity. Note Position is the *perceived*
// position — under a GPS spoofing attack the broadcast carries the
// spoofed value, which is exactly how SPVs propagate.
type State struct {
	// ID is the broadcasting drone's index within the swarm.
	ID int
	// Position is the broadcast position in metres (ENU).
	Position vec.Vec3
	// Velocity is the broadcast velocity in m/s.
	Velocity vec.Vec3
	// Time is the mission time of the broadcast in seconds.
	Time float64
}

// Bus delivers one tick of state exchange. Both methods take the
// states published this tick — one per *active* drone; crashed drones
// stop broadcasting, so IDs need not be contiguous — and return, for
// each publisher (positionally aligned with the input), the neighbour
// states it observes this tick. Senders and receivers are matched by
// State.ID. The returned slices never include the receiver's own state.
//
// Exchange returns freshly allocated slices the caller owns.
// ExchangeInto returns slices backed by a single reusable arena owned
// by the bus: they are valid only until the next Exchange/ExchangeInto
// call, and callers that retain observations across ticks must copy
// them. Both methods advance the bus's internal state (RNG draws,
// delay history) identically; for any call sequence they produce
// element-wise identical observations.
//
// Implementations must be deterministic: the same sequence of exchange
// calls on a bus constructed with the same parameters yields the same
// observations.
//
// Memoryless reports whether each exchange's observations depend on
// that exchange's published states alone — no RNG stream, no history.
// A simulation over a memoryless bus is fully described at every step
// by its drones' state, which is what lets a run resume from a
// recorded snapshot (sim.RunOptions.Prefix).
type Bus interface {
	Exchange(published []State) [][]State
	ExchangeInto(published []State) [][]State
	Memoryless() bool
}

// arena is the flat reusable storage backing ExchangeInto. All
// observations of one exchange live contiguously in flat; rows holds
// one sub-slice per receiver. Capacity is reserved up front by reset
// so rows handed out mid-exchange are never invalidated by growth.
type arena struct {
	flat []State
	rows [][]State
}

// reset prepares the arena for n receivers and at most maxObs total
// observations.
func (a *arena) reset(n, maxObs int) {
	if cap(a.rows) < n {
		a.rows = make([][]State, n)
	}
	a.rows = a.rows[:n]
	if a.flat == nil || cap(a.flat) < maxObs {
		c := maxObs
		if c < 1 {
			c = 1
		}
		a.flat = make([]State, 0, c)
	}
	a.flat = a.flat[:0]
}

// seal fixes row i to the observations appended since mark. The full
// slice expression caps the row so appends by callers cannot clobber
// the next receiver's observations.
func (a *arena) seal(i, mark int) {
	a.rows[i] = a.flat[mark:len(a.flat):len(a.flat)]
}

// copyRows deep-copies arena-backed rows into fresh caller-owned
// slices; it is the shared Exchange compatibility wrapper.
func copyRows(rows [][]State) [][]State {
	out := make([][]State, len(rows))
	for i, r := range rows {
		obs := make([]State, len(r))
		copy(obs, r)
		out[i] = obs
	}
	return out
}

// PerfectBus delivers every broadcast instantly and reliably. It is the
// paper's communication model.
type PerfectBus struct {
	arena arena
}

var _ Bus = (*PerfectBus)(nil)

// NewPerfectBus returns a PerfectBus.
func NewPerfectBus() *PerfectBus { return &PerfectBus{} }

// Exchange implements Bus.
func (b *PerfectBus) Exchange(published []State) [][]State {
	return copyRows(b.ExchangeInto(published))
}

// Memoryless implements Bus: every exchange delivers exactly the
// published states.
func (*PerfectBus) Memoryless() bool { return true }

// ExchangeInto implements Bus. The returned slices alias the bus's
// arena and are valid until the next exchange.
func (b *PerfectBus) ExchangeInto(published []State) [][]State {
	n := len(published)
	b.arena.reset(n, n*(n-1))
	for i := 0; i < n; i++ {
		mark := len(b.arena.flat)
		// Bulk-copy the runs between self-ID matches: same rows as
		// filtering one state at a time, but via memmove.
		id := published[i].ID
		run := 0
		for j := 0; j < n; j++ {
			if published[j].ID == id {
				b.arena.flat = append(b.arena.flat, published[run:j]...)
				run = j + 1
			}
		}
		b.arena.flat = append(b.arena.flat, published[run:n]...)
		b.arena.seal(i, mark)
	}
	return b.arena.rows
}

// heardState is one cell of the LossyBus last-heard table.
type heardState struct {
	s  State
	ok bool
}

// LossyBus drops each (sender, receiver) packet independently with
// probability DropProb. When a packet is dropped the receiver keeps
// acting on the last state it heard from that sender; before the first
// successful reception from a sender, that sender is simply invisible.
type LossyBus struct {
	dropProb float64
	src      *rng.Source
	// heard is a dense receiver×sender last-heard table, indexed
	// [receiverID*stride + senderID]. It is sized from the largest ID
	// seen at first Exchange and only regrown if a larger ID appears,
	// replacing the per-call map churn of the original implementation.
	heard  []heardState
	stride int
	arena  arena
}

var _ Bus = (*LossyBus)(nil)

// NewLossyBus returns a LossyBus with the given drop probability,
// drawing drop decisions from the rng stream derived from seed.
func NewLossyBus(dropProb float64, seed uint64) (*LossyBus, error) {
	if dropProb < 0 || dropProb > 1 {
		return nil, fmt.Errorf("comms: drop probability %v outside [0,1]", dropProb)
	}
	return &LossyBus{dropProb: dropProb, src: rng.Derive(seed, "comms/lossy")}, nil
}

// ensureTable grows the last-heard table to cover IDs < size,
// preserving existing entries.
func (b *LossyBus) ensureTable(size int) {
	if size <= b.stride {
		return
	}
	grown := make([]heardState, size*size)
	for r := 0; r < b.stride; r++ {
		copy(grown[r*size:r*size+b.stride], b.heard[r*b.stride:(r+1)*b.stride])
	}
	b.heard = grown
	b.stride = size
}

// Exchange implements Bus. Only currently-broadcasting senders are
// delivered: a dropped packet falls back to the last heard state of
// that sender, but a sender absent from published (e.g. crashed)
// disappears from everyone's observations immediately.
func (b *LossyBus) Exchange(published []State) [][]State {
	return copyRows(b.ExchangeInto(published))
}

// Memoryless implements Bus: drops draw from an RNG stream and fall
// back to the last-heard table.
func (*LossyBus) Memoryless() bool { return false }

// ExchangeInto implements Bus. The returned slices alias the bus's
// arena and are valid until the next exchange. Drop decisions are
// drawn in the same (receiver-major, sender-minor) order as Exchange
// always has, so the RNG stream — and therefore every observation —
// is unchanged.
func (b *LossyBus) ExchangeInto(published []State) [][]State {
	n := len(published)
	maxID := -1
	for j := 0; j < n; j++ {
		if published[j].ID > maxID {
			maxID = published[j].ID
		}
	}
	b.ensureTable(maxID + 1)
	b.arena.reset(n, n*(n-1))
	for i := 0; i < n; i++ {
		ri := published[i].ID
		row := b.heard[ri*b.stride : (ri+1)*b.stride]
		mark := len(b.arena.flat)
		for j := 0; j < n; j++ {
			sid := published[j].ID
			if sid == ri {
				continue
			}
			if !b.src.Bool(b.dropProb) {
				row[sid] = heardState{s: published[j], ok: true}
			}
			if row[sid].ok {
				b.arena.flat = append(b.arena.flat, row[sid].s)
			}
		}
		b.arena.seal(i, mark)
	}
	return b.arena.rows
}

// DelayedBus delivers every broadcast after a fixed number of ticks.
// With Delay == 0 it behaves like PerfectBus. During the first Delay
// ticks, receivers observe the oldest published states available.
type DelayedBus struct {
	delay int
	// ring holds the last delay+1 published snapshots in reusable
	// buffers; calls counts exchanges so far, so snapshot c lives in
	// slot c%(delay+1) until overwritten delay+1 calls later.
	ring  [][]State
	calls int
	arena arena
}

var _ Bus = (*DelayedBus)(nil)

// NewDelayedBus returns a DelayedBus delivering states delay ticks late.
func NewDelayedBus(delay int) (*DelayedBus, error) {
	if delay < 0 {
		return nil, fmt.Errorf("comms: negative delay %d", delay)
	}
	return &DelayedBus{delay: delay}, nil
}

// Memoryless implements Bus: receivers observe past exchanges.
func (*DelayedBus) Memoryless() bool { return false }

// Exchange implements Bus.
func (b *DelayedBus) Exchange(published []State) [][]State {
	return copyRows(b.ExchangeInto(published))
}

// ExchangeInto implements Bus. The returned slices alias the bus's
// arena and are valid until the next exchange.
func (b *DelayedBus) ExchangeInto(published []State) [][]State {
	k := b.delay + 1
	if b.ring == nil {
		b.ring = make([][]State, k)
	}
	slot := b.calls % k
	b.ring[slot] = append(b.ring[slot][:0], published...)

	// Observation tick: delay ticks ago, clamped to the oldest we
	// have. That snapshot was written delay < k calls ago, so it is
	// still live in its ring slot.
	srcCall := b.calls - b.delay
	if srcCall < 0 {
		srcCall = 0
	}
	src := b.ring[srcCall%k]
	b.calls++

	n := len(published)
	b.arena.reset(n, n*len(src))
	for i := 0; i < n; i++ {
		ri := published[i].ID
		mark := len(b.arena.flat)
		for j := 0; j < len(src); j++ {
			if src[j].ID != ri {
				b.arena.flat = append(b.arena.flat, src[j])
			}
		}
		b.arena.seal(i, mark)
	}
	return b.arena.rows
}
