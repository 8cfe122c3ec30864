package core

import (
	"math"
	"sync"
	"sync/atomic"

	"snd/internal/graph"
	"snd/internal/opinion"
	"snd/internal/sssp"
)

// groundProvider is the ground-distance subsystem of the engine. It
// owns, per reference state and opinion: the materialized eq. 2 edge
// costs (in forward and, lazily, reverse CSR order) and the per-source
// shortest-path trees the Theorem 4 pipeline runs over. Terms consult
// it instead of materializing costs and running every SSSP from
// scratch; when a requested reference state is within a small opinion
// diff of a retained one, the provider derives its data incrementally —
// cost arrays are cloned and patched over the edges incident to the
// differing users (opinion.GroundCosts.PatchEdgeCosts), and trees are
// cloned and repaired over that same dirty edge set (sssp.RepairInto) —
// so tracked-state traffic costs O(|delta|) where cold traffic costs
// O(N + M) per term. Results are bit-identical either way; the
// derivation is purely a cost decision.
//
// # Sharding
//
// The provider is the only state every worker touches on every row and
// cost lookup, so its locking is sharded: entries are distributed
// across providerShards independent lock domains by reference-state
// fingerprint, each with its own RWMutex, refs map, and diff memo.
// Workers evaluating terms of different reference states (the common
// case — a Series batch alternates reference states, a Matrix batch
// scatters them) therefore never contend on a lock, and workers
// sharing one reference state contend only with each other. The byte
// budget is deliberately NOT split per shard: all rows and trees of
// one reference state land in one shard, so a per-shard slice would
// cap each state's working set at 1/providerShards of the configured
// bytes and starve warm Series/Step traffic. Instead the remaining
// budget is a single lock-free atomic — touched only on retention and
// eviction events, which are rare next to lookups — while the used
// gauges stay shard-local and merge on Stats(). Published entry data
// (cost slices, tree rows) is immutable, exactly as before sharding,
// so a reader that obtained a slice holds it without any lock.
//
// The tracked window is the one piece of genuinely global state: it
// orders reference states by recency across shards. It has its own
// mutex, taken only on the delta-advance path (one Step/Apply per
// tick) and on donor scans (a handful per derived reference state),
// never on the per-row fast path.
//
// # Retention
//
// Entries are keyed by state content (the engine's 128-bit state
// fingerprint), so identical states share entries no matter how they
// were produced, and each entry retains a snapshot of its state — the
// diff base for derivations. Tracked reference states — those reported
// through Engine.AdvanceRef by delta-routing callers (snd.Network.Step
// and Apply) — ride a fixed-size window: when an advance pushes the
// window past providerWindow states, the oldest tracked entry is
// dropped and its bytes refunded, which keeps a long-running
// monitoring workload's budget on reference states that can still
// recur or serve as repair donors. Untracked entries (batch
// Pairs/Matrix traffic) are retained first-come until the byte budget
// is spent, exactly like the flat cache this subsystem replaces; a
// Series batch retains only their cost arrays, never their rows (see
// rowGoals).
// Close empties the provider and zeroes the budget so nothing further
// is retained.
//
// # What a delta invalidates
//
// Nothing, directly: entries are immutable once published (in-flight
// readers are safe), and a delta never mutates retained data. A new
// reference state simply becomes a new entry whose costs and trees are
// derived, lazily on first use, from a retained window entry holding
// the wanted data — tried newest first, falling through to older
// entries when a newer one's diff exceeds the derivation cap (up to
// maxDonorCandidates attempts). Tree repair falls back to a full
// Dijkstra when the diff invalidated too much of the tree
// (unsupported region beyond n/4 vertices); a diff wider than
// deriveDiffCap users skips that donor entirely. Both cost patching
// and tree repair require the cost model to be local
// (opinion.LocalPenaltyModel); aggregate models (ICC, LinearThreshold)
// rematerialize and recompute, keeping only same-state reuse.
type groundProvider struct {
	g       *graph.Digraph
	costs   opinion.GroundCosts
	maxCost int64
	// capAt is the term pipeline's saturation cost (infCost under the
	// engine's options): every distance beyond it is charged exactly
	// capAt by arc assembly, so compact retained rows store
	// min(d, capAt) in an int32 without changing any result bit. <= 0
	// disables compact rows (as does a cap beyond int32).
	capAt int64
	// local: the cost model supports O(delta)-edge patching, which also
	// gates tree repair (non-local models move costs beyond the edges
	// incident to changed users).
	local bool

	repairPool sync.Pool // *sssp.RepairScratch
	parentPool sync.Pool // *[]int32 Dijkstra parent scratch (non-local models)

	// shards are the provider's lock domains; shardMask selects one by
	// fingerprint.
	shards    []groundShard
	shardMask uint64
	// budget is the remaining retention bytes, global across shards
	// (see the sharding note above); budgetCap is its initial value,
	// kept for retention-pressure checks. Mutated only on retention
	// and eviction; read lock-free on the hot path's has-budget
	// checks.
	budget    atomic.Int64
	budgetCap int64

	// winMu guards the tracked-reference-state window (oldest first).
	// It orders recency across shards and is taken only on the
	// advance/evict path and on donor scans — never per row.
	winMu  sync.Mutex
	window []hashKey
}

// groundShard is one lock domain of the provider: a slice of the refs
// keyspace with its own mutex and diff memo. used tracks the bytes
// retained by this shard's entries — an atomic mutated under mu but
// readable without it, so Stats() merges shards lock-free.
type groundShard struct {
	mu   sync.RWMutex
	refs map[hashKey]*groundRef
	used atomic.Int64 // retained bytes (merged by Stats)

	// diffMu guards this shard's memo of (donor, target) state diffs
	// and their incident dirty-edge sets, keyed by the target's shard:
	// within one batch the same donor serves every repaired tree of a
	// reference state, so the diff and its edge expansion are computed
	// once, not once per source.
	diffMu   sync.Mutex
	diffMemo map[diffKey]*diffEntry

	// pad keeps neighboring shards' hot words (the RWMutex reader
	// count, the used atomic) off one cache line: shards live in a
	// contiguous slice and are hammered from every worker.
	_ [64]byte //nolint:unused
}

// providerShards is the number of provider lock domains. A fixed small
// power of two: enough that 8-32 workers hashing scattered reference
// states rarely collide on a lock, small enough that the shard slice
// (each padded to its own cache lines) stays a trivial footprint.
const providerShards = 32

// shardDiffMemoCap bounds one shard's diff memo; the memo only
// accelerates the current working set, so past the cap it is rebuilt
// fresh rather than evicted entry-wise.
const shardDiffMemoCap = 32

type diffKey struct {
	donor, target hashKey
}

// diffEntry is one memoized state diff; the edge expansions fill in
// lazily per direction.
type diffEntry struct {
	users  []int32
	failed bool         // diff exceeded the derivation cap
	once   [2]sync.Once // fwd, rev
	edges  [2][]int32
	tails  [2][]int32
}

// providerWindow is how many tracked reference states the provider
// retains. Each Step advance enrolls two states (previous and next),
// so the window spans about providerWindow/2 ticks of history; the
// slack lets contested users that flip again within that horizon find
// a repairable donor tree instead of paying a cold Dijkstra.
const providerWindow = 64

// groundRef is the provider's record of one reference state. Its
// fields are written only under the owning shard's mutex; published
// slices are immutable.
type groundRef struct {
	state   opinion.State // snapshot: the diff base for derivations
	tracked bool          // in the window (reported via AdvanceRef)
	bytes   int64         // retained bytes, refunded on eviction
	side    [2]refSide
}

// refSide is one opinion's share of a groundRef.
type refSide struct {
	fwdW []int32
	revW []int32
	// trees are exact full rows plus (under local models) parent
	// arrays — the repair donors of the tracked delta path.
	trees map[treeKey]*spTree
	// rows are compact rows capped at capAt, retained for untracked
	// reference states of Pairs, Matrix and nearest-neighbour batches
	// (never of Series batches; see rowGoals): a third of a tree's
	// bytes, so traffic that revisits a reference state hits where
	// full-tree retention used to thrash the budget.
	rows map[treeKey][]int32
}

type treeKey struct {
	reversed bool
	src      int32
}

// spTree is one cached single-source shortest-path tree. dist and
// parent are immutable once published; repair happens on clones.
type spTree struct {
	dist   []int64
	parent []int32
}

func opIdx(op opinion.Opinion) int {
	if op == opinion.Negative {
		return 1
	}
	return 0
}

func newGroundProvider(g *graph.Digraph, costs opinion.GroundCosts, budget, capAt int64) *groundProvider {
	_, local := costs.Model.(opinion.LocalPenaltyModel)
	p := &groundProvider{
		g:         g,
		costs:     costs,
		maxCost:   costs.MaxCost(),
		capAt:     capAt,
		local:     local,
		shards:    make([]groundShard, providerShards),
		shardMask: providerShards - 1,
	}
	p.budgetCap = budget
	p.budget.Store(budget)
	for i := range p.shards {
		p.shards[i].refs = make(map[hashKey]*groundRef)
	}
	return p
}

// shardFor selects h's lock domain. Both fingerprint halves mix in so
// shard balance survives either hash being weak on low bits.
func (p *groundProvider) shardFor(h hashKey) *groundShard {
	return &p.shards[(h[0]^h[1])&p.shardMask]
}

// budgetRemaining reports the remaining retention bytes (lock-free).
func (p *groundProvider) budgetRemaining() int64 {
	return p.budget.Load()
}

// retention merges the shards into one snapshot: live entries and
// retained bytes (Engine.Stats surfaces both).
func (p *groundProvider) retention() (refs int64, bytes int64) {
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.RLock()
		refs += int64(len(s.refs))
		s.mu.RUnlock()
		bytes += s.used.Load()
	}
	return refs, bytes
}

// lookup returns the entry for h (nil when absent); the entry's
// published slices are immutable, but its maps and flags must only be
// inspected while no writer can run (tests, quiescent assertions).
func (p *groundProvider) lookup(h hashKey) *groundRef {
	s := p.shardFor(h)
	s.mu.RLock()
	ent := s.refs[h]
	s.mu.RUnlock()
	return ent
}

// windowLen reports the tracked-window depth.
func (p *groundProvider) windowLen() int {
	p.winMu.Lock()
	n := len(p.window)
	p.winMu.Unlock()
	return n
}

// deriveDiffCap bounds how wide an opinion diff a derivation chases:
// past it, patching the incident edges stops being meaningfully
// cheaper than rematerializing, and tree repair would fall back
// anyway.
func (p *groundProvider) deriveDiffCap() int {
	cap := p.g.N() / 8
	if cap < 16 {
		cap = 16
	}
	return cap
}

// diffUsers returns the users at which a and b differ, or ok=false
// once the diff exceeds limit (the derivation is then not worth it).
func diffUsers(a, b opinion.State, limit int) (changed []int32, ok bool) {
	for u := range a {
		if a[u] != b[u] {
			if len(changed) >= limit {
				return nil, false
			}
			changed = append(changed, int32(u))
		}
	}
	return changed, true
}

// advance enrolls reference states prev and next — which differ by the
// given changed users — in the tracked window, evicting whatever the
// window pushes out. It does no other work: costs and trees of next
// derive lazily on first use, by diffing against retained entries.
func (p *groundProvider) advance(prev, next opinion.State, changed []int32) {
	if len(changed) == 0 {
		return
	}
	hp, hn := hashState(prev), hashState(next)
	if hp == hn {
		return
	}
	p.winMu.Lock()
	defer p.winMu.Unlock()
	p.trackWindowLocked(hp, prev)
	p.trackWindowLocked(hn, next)
	for len(p.window) > providerWindow {
		old := p.window[0]
		p.window = p.window[1:]
		p.evictEntry(old)
	}
	// Retention pressure: on graphs whose per-state footprint is large
	// relative to the budget, a full-depth window would starve the
	// current states of tree storage, degrading every row to a cold
	// Dijkstra. Retire history early instead — the newest states are
	// the useful repair donors.
	for len(p.window) > 4 && p.budgetRemaining() < p.budgetCap/8 {
		old := p.window[0]
		p.window = p.window[1:]
		p.evictEntry(old)
	}
}

// trackWindowLocked enrolls h in the window (creating an entry, with
// its state snapshot, in h's shard if needed); a state already in the
// window keeps its position. Callers hold p.winMu.
func (p *groundProvider) trackWindowLocked(h hashKey, st opinion.State) {
	s := p.shardFor(h)
	s.mu.Lock()
	ent := p.entryLocked(s, h, st)
	already := ent.tracked
	ent.tracked = true
	s.mu.Unlock()
	if !already {
		p.window = append(p.window, h)
	}
}

// entryLocked returns s's entry for h, creating it (with a snapshot of
// st, charged to the budget) if absent. Callers hold s.mu.
func (p *groundProvider) entryLocked(s *groundShard, h hashKey, st opinion.State) *groundRef {
	ent := s.refs[h]
	if ent == nil {
		ent = &groundRef{}
		s.refs[h] = ent
	}
	if ent.state == nil && st != nil {
		if cost := int64(len(st)); p.budget.Load() >= cost {
			ent.state = st.Clone()
			ent.bytes += cost
			p.budget.Add(-cost)
			s.used.Add(cost)
		}
	}
	return ent
}

// evictEntry drops h's entry from its shard and refunds its bytes.
func (p *groundProvider) evictEntry(h hashKey) {
	s := p.shardFor(h)
	s.mu.Lock()
	if ent := s.refs[h]; ent != nil {
		p.budget.Add(ent.bytes)
		s.used.Add(-ent.bytes)
		delete(s.refs, h)
	}
	s.mu.Unlock()
}

// clear empties every shard and zeroes the budget so no future insert
// is retained; in-flight readers holding previously fetched slices are
// unaffected (entries are immutable).
func (p *groundProvider) clear() {
	p.winMu.Lock()
	p.window = nil
	p.winMu.Unlock()
	p.budget.Store(0)
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		s.refs = make(map[hashKey]*groundRef)
		s.used.Store(0)
		s.mu.Unlock()
		s.diffMu.Lock()
		s.diffMemo = nil
		s.diffMu.Unlock()
	}
}

// donor describes a retained entry a derivation can diff against.
type donor struct {
	hash  hashKey
	state opinion.State
	fwdW  []int32
	revW  []int32
	tree  *spTree
}

// diffFor returns the memoized user diff between the donor and target
// states; ok is false when it exceeds the derivation cap. The memo
// lives in the target's shard (the shard the derivation will publish
// into), so concurrent derivations of unrelated states never contend.
func (p *groundProvider) diffFor(donorHash, targetHash hashKey, donorState, targetState opinion.State) (*diffEntry, bool) {
	s := p.shardFor(targetHash)
	k := diffKey{donor: donorHash, target: targetHash}
	s.diffMu.Lock()
	if s.diffMemo == nil {
		s.diffMemo = make(map[diffKey]*diffEntry)
	}
	ent := s.diffMemo[k]
	if ent == nil {
		users, ok := diffUsers(donorState, targetState, p.deriveDiffCap())
		ent = &diffEntry{users: users, failed: !ok}
		if len(s.diffMemo) >= shardDiffMemoCap {
			// The memo only accelerates the current working set; a
			// fresh map keeps it from outliving the window.
			s.diffMemo = make(map[diffKey]*diffEntry)
		}
		s.diffMemo[k] = ent
	}
	s.diffMu.Unlock()
	if ent.failed {
		return nil, false
	}
	return ent, true
}

// dirtyFor returns the memoized dirty edge set (and aligned tails)
// between a donor and a target state for the given direction; ok is
// false when the state diff exceeds the derivation cap.
func (p *groundProvider) dirtyFor(donorHash, targetHash hashKey, donorState, targetState opinion.State, reversed bool) (edges, tails []int32, ok bool) {
	ent, ok := p.diffFor(donorHash, targetHash, donorState, targetState)
	if !ok {
		return nil, nil, false
	}
	di := 0
	if reversed {
		di = 1
	}
	ent.once[di].Do(func() {
		ent.edges[di], ent.tails[di] = p.incidentEdges(ent.users, reversed)
	})
	return ent.edges[di], ent.tails[di], true
}

// maxDonorCandidates bounds how many window entries a derivation tries
// before giving up: newest first, falling through to older ones when a
// newer donor's diff exceeds the derivation cap (e.g. the tracked
// state jumped wide and then resumed small deltas).
const maxDonorCandidates = 4

// findDonors scans the tracked window, newest first, for entries whose
// state snapshot is present and which have the wanted datum, returning
// up to maxDonorCandidates of them. want inspects one entry — called
// with that entry's shard read-locked — and returns the donor payload,
// or false. The window is snapshotted up front so no shard lock nests
// inside the window lock on this path.
func (p *groundProvider) findDonors(skip hashKey, want func(*groundRef) (donor, bool)) []donor {
	p.winMu.Lock()
	win := make([]hashKey, len(p.window))
	copy(win, p.window)
	p.winMu.Unlock()
	var out []donor
	for i := len(win) - 1; i >= 0 && len(out) < maxDonorCandidates; i-- {
		h := win[i]
		if h == skip {
			continue
		}
		s := p.shardFor(h)
		s.mu.RLock()
		ent := s.refs[h]
		if ent == nil || ent.state == nil {
			s.mu.RUnlock()
			continue
		}
		if d, ok := want(ent); ok {
			d.hash, d.state = h, ent.state
			out = append(out, d)
		}
		s.mu.RUnlock()
	}
	return out
}

// weights returns the eq. 2 edge costs of (ref, op) in forward or
// reverse CSR order, deriving them by (in preference order) cache hit,
// clone-and-patch against the closest retained state, or fresh
// materialization. st must be the state that ref fingerprints.
func (p *groundProvider) weights(ref hashKey, st opinion.State, op opinion.Opinion, reversed bool) []int32 {
	oi := opIdx(op)
	s := p.shardFor(ref)
	s.mu.RLock()
	ent := s.refs[ref]
	var w []int32
	if ent != nil {
		if reversed {
			w = ent.side[oi].revW
		} else {
			w = ent.side[oi].fwdW
		}
	}
	s.mu.RUnlock()
	if w != nil {
		return w
	}
	if reversed {
		return p.deriveReverse(ref, st, op)
	}
	w = p.deriveForward(ref, st, op)
	if w == nil {
		w = p.costs.EdgeCosts(p.g, st, op)
	}
	return p.putWeights(ref, st, oi, false, w)
}

// deriveForward patches a clone of a retained entry's forward costs
// over the diff to st; nil when no donor is close enough (or the model
// is not local).
func (p *groundProvider) deriveForward(ref hashKey, st opinion.State, op opinion.Opinion) []int32 {
	if !p.local {
		return nil
	}
	oi := opIdx(op)
	donors := p.findDonors(ref, func(ent *groundRef) (donor, bool) {
		if fw := ent.side[oi].fwdW; fw != nil {
			return donor{fwdW: fw}, true
		}
		return donor{}, false
	})
	for _, d := range donors {
		de, ok := p.diffFor(d.hash, ref, d.state, st)
		if !ok {
			continue // too wide a diff: try an older donor
		}
		w := make([]int32, len(d.fwdW))
		copy(w, d.fwdW)
		if _, ok := p.costs.PatchEdgeCosts(p.g, st, de.users, op, w, nil); !ok {
			return nil
		}
		return w
	}
	return nil
}

// deriveReverse produces the reverse-CSR cost array: by patching the
// diff's incident edges onto a clone of a donor's reverse array when
// one is retained, else by permuting the forward array.
func (p *groundProvider) deriveReverse(ref hashKey, st opinion.State, op opinion.Opinion) []int32 {
	oi := opIdx(op)
	fw := p.weights(ref, st, op, false)
	var rw []int32
	if p.local {
		donors := p.findDonors(ref, func(ent *groundRef) (donor, bool) {
			if arw := ent.side[oi].revW; arw != nil {
				return donor{revW: arw}, true
			}
			return donor{}, false
		})
		for _, d := range donors {
			if edges, _, ok := p.dirtyFor(d.hash, ref, d.state, st, false); ok {
				rw = make([]int32, len(d.revW))
				copy(rw, d.revW)
				for _, e := range edges {
					rw[p.g.ReverseEdge(int(e))] = fw[e]
				}
				break
			}
		}
	}
	if rw == nil {
		rw = graph.PermuteToReverse(p.g, fw)
	}
	return p.putWeights(ref, st, oi, true, rw)
}

// putWeights publishes a cost array (first writer wins) and returns
// the published slice.
func (p *groundProvider) putWeights(ref hashKey, st opinion.State, oi int, reversed bool, w []int32) []int32 {
	cost := int64(len(w)) * 4
	sh := p.shardFor(ref)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ent := p.entryLocked(sh, ref, st)
	s := &ent.side[oi]
	if reversed {
		if s.revW != nil {
			return s.revW // racing derivation: keep the published one
		}
	} else if s.fwdW != nil {
		return s.fwdW
	}
	if p.budget.Load() < cost {
		return w // usable, just not retained
	}
	p.budget.Add(-cost)
	sh.used.Add(cost)
	ent.bytes += cost
	if reversed {
		s.revW = w
	} else {
		s.fwdW = w
	}
	return w
}

// rowGoals is the goal-pruned fan-out's provider fast path: it fills
// out[c] with the distance from src to the nearest target of column c
// (cols[i] is the column of targets[i]; nil means one column per
// target), folding a retained row into column minima. It serves, in
// preference order: an exact retained tree; a compact capped row; for
// tracked reference states (the delta-monitoring window, whose exact
// full rows earn their keep as repair donors across ticks) the full
// row() path; and for untracked reference states, when retain is set,
// a fresh full run retained as a compact capped row. Pairs, Matrix and
// nearest-neighbour batches revisit their reference states across
// pairs, and at a third of a tree's bytes the compact rows keep hitting
// at scales where full-tree retention thrashed. Series batches pass
// retain = false: a Series reference state serves only its two
// adjacent pairs, and a row key recurs between those only for a user
// who leaves the opinion and returns to it on the next tick, so a
// retained row would almost never be read back while filling the
// budget. ok is false on such a miss, once the budget is spent, or
// when compact rows are disabled: the caller then runs the grouped
// goal search into its own scratch, retaining nothing.
//
// Values served from compact rows are saturated at capAt; the term
// assembly saturates every distance it consumes at the same threshold,
// so results are bit-identical to exact rows.
func (p *groundProvider) rowGoals(ref hashKey, st opinion.State, op opinion.Opinion, reversed bool, src int32, w []int32, targets, cols []int32, out []int64, retain bool, sc *scratch) bool {
	oi := opIdx(op)
	tk := treeKey{reversed: reversed, src: src}
	var row []int64
	var crow []int32
	tracked := false
	sh := p.shardFor(ref)
	sh.mu.RLock()
	if ent := sh.refs[ref]; ent != nil {
		tracked = ent.tracked
		if tr := ent.side[oi].trees[tk]; tr != nil {
			row = tr.dist
		} else {
			crow = ent.side[oi].rows[tk]
		}
	}
	sh.mu.RUnlock()
	switch {
	case row != nil:
	case tracked:
		// A tracked reference state builds (and retains) its exact
		// trees even when a compact row from an earlier untracked life
		// is cached: the trees are the repair donors the delta path
		// derives the next tick's rows from, and serving the compact
		// row instead would silently degrade every later Step to cold
		// Dijkstras. The compact row remains only as the
		// budget-exhausted fallback.
		if full, ok := p.row(ref, st, op, reversed, src, w); ok {
			row = full
		} else if crow == nil {
			return false
		}
	case crow == nil:
		n := p.g.N()
		if !retain || p.capAt <= 0 || p.capAt > math.MaxInt32 || p.budget.Load() < int64(n)*4 {
			return false
		}
		srcGraph := p.g
		if reversed {
			srcGraph = p.g.Reverse()
		}
		sssp.DijkstraFrontierInto(srcGraph, w, int(src), p.maxCost, &sc.res, &sc.fr)
		c := make([]int32, n)
		capAt := int32(p.capAt)
		for v, d := range sc.res.Dist {
			if d > p.capAt { // includes Unreachable
				c[v] = capAt
			} else {
				c[v] = int32(d)
			}
		}
		crow = p.putRow(ref, st, oi, tk, c)
	}
	if row != nil {
		foldCols(out, row, targets, cols)
	} else {
		foldCols(out, crow, targets, cols)
	}
	return true
}

// foldCols sets out[c] to the minimum of row over the targets of column
// c (cols[i] is the column of targets[i]; nil means one column per
// target) — what sssp.DijkstraGoalsInto computes, read off a whole row.
// A column without targets reports sssp.Unreachable.
func foldCols[D int32 | int64](out []int64, row []D, targets, cols []int32) {
	if cols == nil {
		for j, t := range targets {
			out[j] = int64(row[t])
		}
		return
	}
	for c := range out {
		out[c] = sssp.Unreachable
	}
	for i, t := range targets {
		if d := int64(row[t]); d < out[cols[i]] {
			out[cols[i]] = d
		}
	}
}

// isTracked reports whether ref rides the tracked delta window. Warm
// exact-match shortcuts consult it: a tracked reference state must not
// skip its SSSP fan-out (the fan-out materializes the exact trees the
// next tick's delta repairs derive from), so the shortcut stands down
// for it.
func (p *groundProvider) isTracked(ref hashKey) bool {
	s := p.shardFor(ref)
	s.mu.RLock()
	ent := s.refs[ref]
	tracked := ent != nil && ent.tracked
	s.mu.RUnlock()
	return tracked
}

// peekRow returns the retained distance row for (ref, op, reversed,
// src) without deriving or computing anything: the exact tree's dist
// array when one is retained, else the compact capped row. ok reports
// a hit. This is the read side of lower-bound screening, which must
// never pay shortest-path work for a bound.
func (p *groundProvider) peekRow(ref hashKey, op opinion.Opinion, reversed bool, src int32) (dist []int64, compact []int32, ok bool) {
	oi := opIdx(op)
	tk := treeKey{reversed: reversed, src: src}
	s := p.shardFor(ref)
	s.mu.RLock()
	defer s.mu.RUnlock()
	ent := s.refs[ref]
	if ent == nil {
		return nil, nil, false
	}
	if tr := ent.side[oi].trees[tk]; tr != nil {
		return tr.dist, nil, true
	}
	if c := ent.side[oi].rows[tk]; c != nil {
		return nil, c, true
	}
	return nil, nil, false
}

// putRow publishes a compact capped row (first writer wins) and
// returns the published slice.
func (p *groundProvider) putRow(ref hashKey, st opinion.State, oi int, tk treeKey, c []int32) []int32 {
	cost := int64(len(c)) * 4
	sh := p.shardFor(ref)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ent := p.entryLocked(sh, ref, st)
	s := &ent.side[oi]
	if s.rows == nil {
		s.rows = make(map[treeKey][]int32)
	}
	if dup := s.rows[tk]; dup != nil {
		return dup
	}
	if p.budget.Load() >= cost {
		p.budget.Add(-cost)
		sh.used.Add(cost)
		ent.bytes += cost
		s.rows[tk] = c
	}
	return c
}

// row returns the shortest-path distance row from src under (ref, op)
// in the given direction, serving it by cache hit, by repairing a
// clone of the closest retained tree over the diff's dirty edges, or
// by a fresh Dijkstra — retaining the tree when the shard's budget
// allows. The parent array (the seed of future repairs) is retained
// only under a local cost model; non-local models can never repair, so
// for them the retained tree is a dist-only row at the replaced flat
// cache's byte cost. ok is false when the budget is spent; the caller
// computes into its own scratch instead.
func (p *groundProvider) row(ref hashKey, st opinion.State, op opinion.Opinion, reversed bool, src int32, w []int32) ([]int64, bool) {
	oi := opIdx(op)
	tk := treeKey{reversed: reversed, src: src}
	sh := p.shardFor(ref)
	sh.mu.RLock()
	if ent := sh.refs[ref]; ent != nil {
		if tr := ent.side[oi].trees[tk]; tr != nil {
			sh.mu.RUnlock()
			return tr.dist, true
		}
	}
	sh.mu.RUnlock()
	var donors []donor
	if p.local {
		donors = p.findDonors(ref, func(e2 *groundRef) (donor, bool) {
			if tr := e2.side[oi].trees[tk]; tr != nil {
				return donor{tree: tr}, true
			}
			return donor{}, false
		})
	}

	n := p.g.N()
	cost := int64(n) * 8 // dist row
	if p.local {
		cost = int64(n) * 12 // plus the parent array repairs seed from
	}
	if p.budget.Load() < cost {
		return nil, false
	}
	srcGraph := p.g
	if reversed {
		srcGraph = p.g.Reverse()
	}
	tr := &spTree{dist: make([]int64, n)}
	var scratchParent []int32
	if p.local {
		tr.parent = make([]int32, n)
	} else {
		// Non-local models never repair, so the parent tree is compute
		// scratch, not retained state: borrow a pooled buffer.
		if sp, _ := p.parentPool.Get().(*[]int32); sp != nil && len(*sp) >= n {
			scratchParent = (*sp)[:n]
		} else {
			scratchParent = make([]int32, n)
		}
	}
	res := sssp.Result{Dist: tr.dist, Parent: tr.parent}
	if !p.local {
		res.Parent = scratchParent
	}
	repaired := false
	for _, d := range donors {
		dirty, dirtyTails, ok := p.dirtyFor(d.hash, ref, d.state, st, reversed)
		if !ok {
			continue // too wide a diff: try an older donor
		}
		copy(tr.dist, d.tree.dist)
		copy(tr.parent, d.tree.parent)
		rs, _ := p.repairPool.Get().(*sssp.RepairScratch)
		if rs == nil {
			rs = &sssp.RepairScratch{}
		}
		sssp.RepairInto(srcGraph, w, int(src), p.maxCost, &res, dirty, dirtyTails, n/4+16, rs)
		p.repairPool.Put(rs)
		repaired = true
		break
	}
	if !repaired {
		sssp.DijkstraInto(srcGraph, w, int(src), p.maxCost, &res)
	}
	tr.dist = res.Dist
	if p.local {
		tr.parent = res.Parent
	} else {
		p.parentPool.Put(&res.Parent)
	}
	return p.putTree(ref, st, oi, tk, tr, cost), true
}

// putTree publishes a tree (first writer wins) and returns the
// published row.
func (p *groundProvider) putTree(ref hashKey, st opinion.State, oi int, tk treeKey, tr *spTree, cost int64) []int64 {
	sh := p.shardFor(ref)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ent := p.entryLocked(sh, ref, st)
	s := &ent.side[oi]
	if s.trees == nil {
		s.trees = make(map[treeKey]*spTree)
	}
	if dup := s.trees[tk]; dup != nil {
		return dup.dist
	}
	if p.budget.Load() >= cost {
		p.budget.Add(-cost)
		sh.used.Add(cost)
		ent.bytes += cost
		s.trees[tk] = tr
	}
	return tr.dist
}

// incidentEdges returns the CSR indices (in the forward or reverse
// graph, matching the direction of the array they dirty) of every edge
// incident to the given users — the dirty superset a repair over a
// |delta|-user change must re-relax — along with each edge's tail, so
// the repair avoids per-edge tail searches.
func (p *groundProvider) incidentEdges(users []int32, reversed bool) (edges, tails []int32) {
	g := p.g
	if reversed {
		g = p.g.Reverse()
	}
	set := make(map[int32]bool, len(users))
	for _, u := range users {
		set[u] = true
	}
	for u := range set {
		lo, hi := g.EdgeRange(int(u))
		for e := lo; e < hi; e++ {
			edges = append(edges, int32(e))
			tails = append(tails, u)
		}
		inTails, inEdges := g.InEdges(int(u))
		for j, t := range inTails {
			if set[t] {
				continue // covered by t's own out-edge range
			}
			edges = append(edges, inEdges[j])
			tails = append(tails, t)
		}
	}
	return edges, tails
}
