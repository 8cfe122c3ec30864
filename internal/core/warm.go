package core

import (
	"sync"

	"snd/internal/flow"
	"snd/internal/opinion"
)

// This file implements warm-started transportation solves for the
// bipartite term pipeline. The engine retains one small byte-budgeted
// ring of recently solved instances ("bases"), keyed by the term's
// reduced structure (reference-state fingerprint, opinion,
// orientation, supplier/consumer/bank user lists). A basis is plain
// data captured from the solved network when it is stored: the term
// value, the node potentials and the positive-flow cells.
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
// Either way the returned cost is the exact optimum (it is unique), so
// distances are bit-identical to cold solves; a negative
// EngineConfig.WarmCacheBytes pins the cold pipeline.
//
// Multicore audit note: the ring is shared by every worker and every
// batch of the engine, behind one mutex taken at most twice per term:
// once for the lookup scan (which also refreshes an exact hit) and
// once to store the solved basis. Neither holds it for solver work:
// the basis is captured before store locks, and lookup hands back a
// copy whose slices are never written after the store, so the replay
// reads them unlocked while another worker strips or drops the entry.
// A repeated term hits whichever worker or batch solved it.

// warmMinArcs is the smallest instance the warm cache bothers with:
// below it a cold solve costs about as much as the bookkeeping.
const warmMinArcs = 64

// maxWarmEntries caps the ring length regardless of byte budget:
// lookup scans the ring linearly per term, and structure-only entries
// are cheap enough (about 256 bytes) that a long session would
// otherwise accumulate tens of thousands of them, turning every lookup
// into a multi-millisecond sweep for hits with negligible probability.
// A few hundred entries cover any realistic reuse window (a
// Series/Matrix pass over dozens of states stores four bases per
// pair).
const maxWarmEntries = 768

// warmCell is one positive-flow arc of a solved instance: flow units
// from source k to column j.
type warmCell struct {
	k, j int32
	flow int64
}

// warmBasis is one retained solved instance. Retention is two-tier:
// the structure and optimal cost serve exact hits, while the
// potentials and flow cells serve transplants. Under budget pressure
// the transplant data of older bases is stripped first, so a long
// Series/Matrix history keeps exact-matching whole instances long
// after their transplant donors are gone. No slice is written once
// the basis is stored; stripping only drops the references.
type warmBasis struct {
	refHash hashKey
	op      opinion.Opinion
	red     reduction // reduce() output; slices are owned (fresh per reduce)
	arcs    int       // forward-arc count of the instance
	val     float64   // the term value (optimal cost / scale)
	// prices are the donor's node potentials, by network node, and
	// cells its positive-flow arcs; both nil once stripped.
	prices []int64
	cells  []warmCell
}

// newWarmBasis captures the basis of bp's solved network nw.
func newWarmBasis(refHash hashKey, op opinion.Opinion, bp *bipartite, nw *flow.Network, val float64) *warmBasis {
	prices := make([]int64, nw.N())
	for v := range prices {
		prices[v] = nw.Price(v)
	}
	nSup, nDem := bp.shape()
	cells := make([]warmCell, 0, nSup+nDem)
	for u := 0; u < nSup; u++ {
		for v := 0; v < nDem; v++ {
			k, j := bp.cell(u, v)
			if a := bp.arc(k, j); a >= 0 && nw.Flow(a) > 0 {
				cells = append(cells, warmCell{k: int32(k), j: int32(j), flow: nw.Flow(a)})
			}
		}
	}
	return &warmBasis{refHash: refHash, op: op, red: bp.red, arcs: bp.numArcs(), val: val, prices: prices, cells: cells}
}

// dataBytes is the basis's transplant footprint, structBytes its
// structure footprint: the reduced user lists plus fixed overhead.
func (wb *warmBasis) dataBytes() int64 { return int64(len(wb.prices))*8 + int64(len(wb.cells))*16 }

func (wb *warmBasis) structBytes() int64 {
	members := 0
	for _, b := range wb.red.banks {
		members += len(b.members)
	}
	return int64(len(wb.red.S)+len(wb.red.C)+members)*4 + 256
}

// warmCache is the engine's byte-budgeted ring of bases, oldest first.
// One budget covers transplant data and structures (exact-hit memos)
// alike; under it the oldest entries lose their data before any whole
// entry is dropped.
type warmCache struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64 // data and structures retained
	entries []*warmBasis
}

func newWarmCache(budget int64) *warmCache {
	if budget <= 0 {
		return nil
	}
	return &warmCache{budget: budget}
}

// store retains wb as the newest entry, replacing a retained basis of
// the same instance (two batches may solve one term concurrently).
// Past the budget, transplant data is stripped oldest first (the
// newest always keeps its data), and only then do whole oldest entries
// drop.
func (wc *warmCache) store(wb *warmBasis) {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	for i := len(wc.entries) - 1; i >= 0; i-- {
		if e := wc.entries[i]; e.refHash == wb.refHash && e.op == wb.op && e.sameStructure(wb.red) {
			wc.bytes -= e.dataBytes() + e.structBytes()
			wc.entries = append(wc.entries[:i], wc.entries[i+1:]...)
			break
		}
	}
	wc.entries = append(wc.entries, wb)
	wc.bytes += wb.dataBytes() + wb.structBytes()
	for i := 0; i < len(wc.entries)-1 && wc.bytes > wc.budget; i++ {
		wc.strip(wc.entries[i])
	}
	for (wc.bytes > wc.budget || len(wc.entries) > maxWarmEntries) && len(wc.entries) > 1 {
		old := wc.entries[0]
		wc.entries = wc.entries[1:]
		wc.strip(old)
		wc.bytes -= old.structBytes()
	}
}

// strip drops an entry's transplant data.
func (wc *warmCache) strip(e *warmBasis) {
	wc.bytes -= e.dataBytes()
	e.prices, e.cells = nil, nil
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

// lookup scans the ring newest-first for bp's instance (markInstance
// must have been called for bp.red on sc). An exact instance match is
// served whole when shortcut is set: lookup refreshes it and returns
// its value with exact set. Otherwise the match is the transplant
// donor, if it still holds its data. Failing a match, the
// best-overlapping basis that holds its data is the donor, or none.
// The donor is a copy taken under the lock, so the caller reads it
// unlocked. Every entry can exact-match (the refHash/size prefilter
// makes misses O(1)).
func (wc *warmCache) lookup(sc *scratch, refHash hashKey, spec termSpec, bp *bipartite, shortcut bool) (val float64, exact bool, donor *warmBasis) {
	red := bp.red
	newSize := len(red.S) + len(red.C)
	newArcs := bp.numArcs()
	bestScore := 0
	const maxScan = 12 // donors scored per lookup
	scanned := 0
	var best *warmBasis
	wc.mu.Lock()
	defer wc.mu.Unlock()
	for i := len(wc.entries) - 1; i >= 0; i-- {
		wb := wc.entries[i]
		if wb.op != spec.op || wb.red.banksOnSupplier != red.banksOnSupplier {
			continue
		}
		if wb.refHash == refHash && wb.sameStructure(red) {
			if shortcut {
				copy(wc.entries[i:], wc.entries[i+1:])
				wc.entries[len(wc.entries)-1] = wb
				return wb.val, true, nil
			}
			best, bestScore = nil, 0
			if wb.prices != nil {
				best, bestScore = wb, newSize
			}
			break
		}
		// Transplants only pay off on instances big enough to make a
		// cold solve expensive, from donors that still hold their data
		// and are not so much bigger that the replay itself dominates.
		if wb.prices == nil || scanned >= maxScan ||
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
			best = wb
		}
	}
	if best == nil || 2*bestScore < newSize {
		return 0, false, nil // too little overlap: transplant would be junk
	}
	d := *best
	return 0, false, &d
}

// --- transplant ---

// transplant replays donor wb's routed flow and node potentials onto
// the freshly assembled instance bp in nw (excesses and fresh costs
// already in place), matching sources and columns by user identity:
// opposite users by role, banks by anchor (first member) user. Both
// instances share bp's layout rules, so a donor node maps by the same
// rowNode/colNode numbering. markInstance must have been called for
// bp.red. Unmatched donor flow is simply dropped; SolveSSPWarm absorbs
// every imperfection.
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
		p := wb.prices[donorNode]
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

	// Routed flow, replayed cell by cell onto the cells the network
	// holds (PreloadFlow clamps to the new capacities).
	for _, c := range wb.cells {
		if nk, nj := rowMap[c.k], colMap[c.j]; nk >= 0 && nj >= 0 {
			if a := bp.arc(int(nk), int(nj)); a >= 0 {
				nw.PreloadFlow(a, c.flow)
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
