package core

import (
	"snd/internal/flow"
	"snd/internal/opinion"
)

// This file implements warm-started transportation solves for the
// bipartite term pipeline. Each engine worker retains, in its scratch
// arena, a small byte-budgeted ring of recently solved flow networks
// ("bases"): the routed flow plus the final node potentials, keyed by
// the term's reduced structure (reference-state fingerprint, opinion,
// orientation, supplier/consumer/bank user lists).
//
// A new term consults the ring before solving:
//
//   - Exact hit: the ground distance (reference fingerprint + opinion +
//     orientation) and the whole reduced structure match a retained
//     basis. The instance is then identical arc-for-arc, so its
//     retained optimal cost is the answer — no SSSP fan-out, no
//     assembly, no solve. This is what repeated Series/Matrix traffic
//     over the same states hits.
//   - Transplant: a basis with the same orientation shares enough
//     supplier/consumer users (at least half of the new instance). The
//     term is assembled as usual with fresh costs, the donor's routed
//     flow and potentials are replayed onto the matching arcs and
//     nodes by user identity, and flow.SolveSSPWarm repairs dual
//     feasibility and drains the residual imbalance — a handful of
//     augmentations where a cold solve pays one per supplier. This is
//     what monitoring and nearest-neighbor traffic over slowly
//     evolving states hits.
//
// Donor and new instance share one layout (bipartite), so a matched
// supplier-consumer or bank arc carries over by id.
//
// Either way the returned cost is the exact optimum (it is unique), so
// distances are bit-identical to cold solves; a negative
// EngineConfig.WarmCacheBytes pins the cold pipeline. The ring is
// per-worker state: no locks, and hit rates degrade gracefully when
// terms scatter across workers.
//
// Multicore audit note: the ring lives in the worker's scratch arena
// (scratch.warm), so it is already fully sharded — no mutex, no
// shared map, no atomic in any warm path; nothing here can serialize
// workers. The budget is likewise split up front (NewEngine divides
// WarmCacheBytes by the worker count), so there is no cross-worker
// rebalancing to contend on. The cost of this shape is lower hit
// rates when the same term lands on different workers across batches;
// that is a throughput trade, not a contention point, and the
// scalingcores benchmark measures it (warm vs cold Series rows).

// warmMinArcs is the smallest instance the warm cache bothers with:
// below it a cold solve costs about as much as the bookkeeping.
const warmMinArcs = 64

// maxWarmEntries caps the ring length regardless of byte budget:
// findWarm scans the ring linearly per term, and structure-only
// entries are cheap enough (about 256 bytes) that a long session
// would otherwise accumulate tens of thousands of them, turning every
// lookup into a multi-millisecond sweep for hits with negligible
// probability. A few hundred entries cover any realistic reuse window
// (a Series/Matrix pass over dozens of states stores four bases per
// pair).
const maxWarmEntries = 768

// warmBasis is one retained solved instance. Retention is two-tier:
// the structure and optimal cost (cheap — a few KB) serve exact hits,
// while the solved network (routed flow + potentials, tens of MB on
// large terms) serves transplants. Under budget pressure the networks
// of older bases are stripped first, so a long Series/Matrix history
// keeps exact-matching whole instances long after their transplant
// donors are gone.
type warmBasis struct {
	refHash               hashKey
	op                    opinion.Opinion
	red                   reduction // reduce() output; slices are owned (fresh per reduce)
	arcs                  int       // forward-arc count of the instance
	val                   float64   // the term value (optimal cost / scale)
	nw                    *flow.Network
	netBytes, structBytes int64
}

// warmCache is a per-worker byte-budgeted ring of bases, oldest first.
// Three quarters of the budget hold solved networks (transplant
// donors), one quarter holds structures (exact-hit memos).
type warmCache struct {
	netBudget, structBudget int64
	netBytes, structBytes   int64
	entries                 []*warmBasis
	free                    []*flow.Network // stripped networks, recycled by scratch.network
}

func newWarmCache(budget int64) *warmCache {
	if budget <= 0 {
		return nil
	}
	return &warmCache{netBudget: budget - budget/4, structBudget: budget / 4}
}

// takeFree pops a recycled network, if any.
func (wc *warmCache) takeFree() *flow.Network {
	if wc == nil || len(wc.free) == 0 {
		return nil
	}
	nw := wc.free[len(wc.free)-1]
	wc.free = wc.free[:len(wc.free)-1]
	return nw
}

// stripNet detaches an entry's network into the free list.
func (wc *warmCache) stripNet(e *warmBasis) {
	wc.netBytes -= e.netBytes
	if len(wc.free) < 2 {
		wc.free = append(wc.free, e.nw)
	}
	e.nw = nil
	e.netBytes = 0
}

// store retains a basis as the newest entry: networks of older entries
// are stripped past the network budget (the newest always keeps its
// network), and whole oldest entries drop past the structure budget.
func (wc *warmCache) store(wb *warmBasis) {
	wc.entries = append(wc.entries, wb)
	wc.structBytes += wb.structBytes
	wc.netBytes += wb.netBytes
	for i := 0; i < len(wc.entries)-1 && wc.netBytes > wc.netBudget; i++ {
		if e := wc.entries[i]; e.nw != nil {
			wc.stripNet(e)
		}
	}
	for (wc.structBytes > wc.structBudget || len(wc.entries) > maxWarmEntries) &&
		len(wc.entries) > 1 {
		old := wc.entries[0]
		wc.entries = wc.entries[1:]
		wc.structBytes -= old.structBytes
		if old.nw != nil {
			wc.stripNet(old)
		}
	}
}

// refresh moves a hit entry to the newest position.
func (wc *warmCache) refresh(wb *warmBasis) {
	for i, e := range wc.entries {
		if e == wb {
			copy(wc.entries[i:], wc.entries[i+1:])
			wc.entries[len(wc.entries)-1] = wb
			return
		}
	}
}

// netFootprint estimates a solved network's retained bytes (arc banks
// dominate, plus node arrays).
func netFootprint(nw *flow.Network) int64 {
	return int64(nw.NumArcs())*48 + int64(nw.N())*24
}

// structFootprint estimates a basis's structure bytes: the reduced
// user lists plus fixed overhead.
func structFootprint(red reduction) int64 {
	members := 0
	for _, b := range red.banks {
		members += len(b.members)
	}
	return int64(len(red.S)+len(red.C)+members)*4 + 256
}

// --- instance marking (user -> slot maps with epoch-stamped validity) ---

// markInstance publishes the new instance's user->slot maps in the
// scratch arena: supplier index, consumer index, and bank index by
// anchor (first member) user. Valid until the next markInstance call.
func (sc *scratch) markInstance(n int, red reduction) {
	if cap(sc.slotEpoch) < n {
		sc.slotEpoch = make([]uint32, n)
		sc.slotSup = make([]int32, n)
		sc.slotCon = make([]int32, n)
		sc.slotBank = make([]int32, n)
	}
	sc.slotEpoch = sc.slotEpoch[:n]
	sc.slotSup = sc.slotSup[:n]
	sc.slotCon = sc.slotCon[:n]
	sc.slotBank = sc.slotBank[:n]
	sc.slotGen++
	if sc.slotGen == 0 { // wrapped: stamp array may hold stale matches
		for i := range sc.slotEpoch {
			sc.slotEpoch[i] = 0
		}
		sc.slotGen = 1
	}
	gen := sc.slotGen
	touch := func(u int32) {
		if sc.slotEpoch[u] != gen {
			sc.slotEpoch[u] = gen
			sc.slotSup[u] = -1
			sc.slotCon[u] = -1
			sc.slotBank[u] = -1
		}
	}
	for i, u := range red.S {
		touch(u)
		sc.slotSup[u] = int32(i)
	}
	for j, u := range red.C {
		touch(u)
		sc.slotCon[u] = int32(j)
	}
	for b := range red.banks {
		u := red.banks[b].members[0]
		touch(u)
		sc.slotBank[u] = int32(b)
	}
}

// slot returns u's index in m, one of the instance's user->slot maps
// (slotSup, slotCon or slotBank), if u holds that role.
func (sc *scratch) slot(m []int32, u int32) (int32, bool) {
	if sc.slotEpoch[u] != sc.slotGen || m[u] < 0 {
		return -1, false
	}
	return m[u], true
}

// --- matching ---

func int32Equal(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sameStructure reports whether the basis's reduced instance is
// arc-for-arc identical to red.
func (wb *warmBasis) sameStructure(red reduction) bool {
	if wb.red.scale != red.scale || wb.red.banksOnSupplier != red.banksOnSupplier {
		return false
	}
	if !int32Equal(wb.red.S, red.S) || !int32Equal(wb.red.C, red.C) {
		return false
	}
	if len(wb.red.banks) != len(red.banks) {
		return false
	}
	for b := range red.banks {
		if wb.red.banks[b].units != red.banks[b].units ||
			!int32Equal(wb.red.banks[b].members, red.banks[b].members) {
			return false
		}
	}
	return true
}

// findWarm scans the ring newest-first (markInstance must have been
// called for red) and returns an exact instance match, or failing that
// the best-overlapping transplant donor, or neither. Every entry can
// exact-match (the refHash/size prefilter makes misses O(1)); only
// entries still holding their network can donate.
func (sc *scratch) findWarm(refHash hashKey, spec termSpec, bp *bipartite) (exact, donor *warmBasis) {
	wc := sc.warm
	if wc == nil {
		return nil, nil
	}
	red := bp.red
	newSize := len(red.S) + len(red.C)
	newArcs := bp.numArcs()
	bestScore := 0
	const maxScan = 12 // donors scored per lookup
	scanned := 0
	for i := len(wc.entries) - 1; i >= 0; i-- {
		wb := wc.entries[i]
		if wb.op != spec.op || wb.red.banksOnSupplier != red.banksOnSupplier {
			continue
		}
		if wb.refHash == refHash && wb.sameStructure(red) {
			return wb, nil
		}
		// Transplants only pay off on instances big enough to make a
		// cold solve expensive, from donors that still hold their
		// network and are not so much bigger that the replay itself
		// dominates.
		if wb.nw == nil || scanned >= maxScan ||
			newArcs < warmMinArcs || wb.arcs > 4*newArcs {
			continue
		}
		scanned++
		score := 0
		for _, u := range wb.red.S {
			if _, ok := sc.slot(sc.slotSup, u); ok {
				score++
			}
		}
		for _, u := range wb.red.C {
			if _, ok := sc.slot(sc.slotCon, u); ok {
				score++
			}
		}
		if score > bestScore {
			bestScore = score
			donor = wb
		}
	}
	if 2*bestScore < newSize {
		donor = nil // too little overlap: transplant would be junk
	}
	return nil, donor
}

// --- transplant ---

// transplant replays donor wb's routed flow and node potentials onto
// the freshly assembled instance bp in nw (excesses and fresh costs
// already in place), matching sources and columns by user identity:
// opposite users by role, banks by anchor (first member) user. Both
// instances share bp's layout rules, so a matched (source, column) arc
// carries over by id. markInstance must have been called for bp.red.
// Unmatched donor flow is simply dropped; SolveSSPWarm absorbs every
// imperfection.
func (sc *scratch) transplant(nw *flow.Network, bp *bipartite, wb *warmBasis) {
	old := newBipartite(wb.red, 0, 0)
	rowSlots, oppSlots := sc.slotSup, sc.slotCon
	if bp.rev {
		rowSlots, oppSlots = sc.slotCon, sc.slotSup
	}
	// Map donor rows and columns to new ones once.
	rowMap := sc.takeMap(&sc.mapRows, len(old.sources))
	for k, u := range old.sources {
		rowMap[k] = -1
		if nk, ok := sc.slot(rowSlots, u); ok {
			rowMap[k] = nk
		}
	}
	colMap := sc.takeMap(&sc.mapCols, old.nCols())
	for j, u := range old.opposite {
		colMap[j] = -1
		if nj, ok := sc.slot(oppSlots, u); ok {
			colMap[j] = nj
		}
	}
	for b := range old.red.banks {
		j := old.nOpp() + b
		colMap[j] = -1
		if nb, ok := sc.slot(sc.slotBank, old.red.banks[b].members[0]); ok {
			colMap[j] = int32(bp.nOpp()) + nb
		}
	}

	// Potentials. Unmapped nodes are handled after the mapped pass:
	// the drain's potentials are non-negative and grow toward the
	// demand side, so a supply-side node left at zero would see every
	// outgoing arc's reduced cost go negative and the saturation
	// repair would dump its whole capacity as junk flow. Seeding
	// unmapped supply-side nodes with the maximum mapped potential
	// keeps all their arcs non-negative; unmapped demand-side nodes
	// are safe at zero (arcs into them only gain reduced cost).
	mapped := sc.takeMap(&sc.mapNodes, nw.N())
	for i := range mapped {
		mapped[i] = 0
	}
	var pMax int64
	seed := func(node, donorNode int) {
		p := wb.nw.Price(donorNode)
		nw.SetPrice(node, p)
		mapped[node] = 1
		if p > pMax {
			pMax = p
		}
	}
	for k, nk := range rowMap {
		if nk >= 0 {
			seed(bp.rowNode(int(nk)), old.rowNode(k))
		}
	}
	for j, nj := range colMap {
		if nj >= 0 {
			seed(bp.colNode(int(nj)), old.colNode(j))
		}
	}
	for v := 0; v < nw.N(); v++ {
		if mapped[v] == 0 && nw.Excess(v) > 0 {
			nw.SetPrice(v, pMax)
		}
	}

	// Routed flow, replayed arc by arc (PreloadFlow clamps to the new
	// capacities).
	for k, nk := range rowMap {
		if nk < 0 {
			continue
		}
		for j, nj := range colMap {
			if nj < 0 {
				continue
			}
			if f := wb.nw.Flow(old.arc(k, j)); f > 0 {
				nw.PreloadFlow(bp.arc(int(nk), int(nj)), f)
			}
		}
	}
}

// takeMap returns an n-sized int32 buffer from the arena slot.
func (sc *scratch) takeMap(slot *[]int32, n int) []int32 {
	if cap(*slot) < n {
		*slot = make([]int32, n)
	}
	*slot = (*slot)[:n]
	return *slot
}
