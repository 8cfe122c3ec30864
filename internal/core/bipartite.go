package core

import (
	"snd/internal/flow"
	"snd/internal/sssp"
)

// bipartite is the Theorem 4 transportation instance of one reduced
// EMD* term: the fan-out's sources against its columns, which are the
// opposite residual users followed by one column per bank. rows[k][j]
// is the ground distance from source k to column j (for a bank column,
// to the bank's nearest member); a source and an opposite user each
// carry red.scale units, and bank j-nOpp its units.
//
// The flow network numbers a supply block, then a demand block. The
// sources supply in the forward orientation; when the banks sit on the
// supplier side (rev) the columns supply and the sources demand. The
// arc of supply node u and demand node v has the smaller of the two
// masses as capacity, and the capped cell plus gamma on a bank column
// as cost. Over complete rows the network holds every cell, arc (u, v)
// being the row-major forward arc 2*(u*nDem+v); over partial rows it
// holds some cells, and arcs maps each cell to its arc (see network).
// Every consumer — bound gate, entropic stage, assembly, warm
// transplant and Explain — reads the instance through this type.
//
// A bipartite with nil rows still names nodes and arcs; a warm donor's
// layout is read that way.
//
// Rows may be partial (see termCtx.partialRows): radius[k] is then the
// distance within which row k is exact, and a cell past it is unknown
// and holds radius[k]+1, a lower bound on its distance. radius[k] is
// sssp.Unreachable on a complete row, and radius is nil when every row
// is complete.
type bipartite struct {
	red               reduction
	rev               bool
	sources, opposite []int32
	rows              [][]int64
	radius            []int64
	gamma, inf        int64 // bank-arc surcharge; saturated cost
	// arcs maps cell (k, j), at k*nCols+j, to its forward-arc id, or
	// to -1 where the network leaves the cell out; nil while the network
	// holds every cell in the dense layout.
	arcs []int32
	// forced lists the cells (k*nCols+j) over unknown cells that the
	// bound gate's greedy plan shipped on; with the known cells they
	// make a feasible instance.
	forced []int32
}

func newBipartite(red reduction, gamma, inf int64) bipartite {
	bp := bipartite{red: red, rev: red.banksOnSupplier, sources: red.S, opposite: red.C, gamma: gamma, inf: inf}
	if bp.rev {
		bp.sources, bp.opposite = red.C, red.S
	}
	return bp
}

func (bp *bipartite) nOpp() int  { return len(bp.opposite) }
func (bp *bipartite) nCols() int { return len(bp.opposite) + len(bp.red.banks) }

// numArcs is the instance's forward-arc count.
func (bp *bipartite) numArcs() int { return len(bp.sources) * bp.nCols() }

// shape returns the sizes of the supply and demand blocks.
func (bp *bipartite) shape() (nSup, nDem int) {
	if bp.rev {
		return bp.nCols(), len(bp.sources)
	}
	return len(bp.sources), bp.nCols()
}

// cell returns the row and column of arc (u, v).
func (bp *bipartite) cell(u, v int) (k, j int) {
	if bp.rev {
		return v, u
	}
	return u, v
}

// rowNode and colNode return the network node of source k and column j.
func (bp *bipartite) rowNode(k int) int {
	if bp.rev {
		return bp.nCols() + k
	}
	return k
}

func (bp *bipartite) colNode(j int) int {
	if bp.rev {
		return j
	}
	return len(bp.sources) + j
}

// arc returns the forward-arc id joining source k and column j, or -1
// where the network leaves the cell out.
func (bp *bipartite) arc(k, j int) int {
	if bp.arcs != nil {
		return int(bp.arcs[k*bp.nCols()+j])
	}
	if bp.rev {
		return 2 * (j*len(bp.sources) + k)
	}
	return 2 * (k*bp.nCols() + j)
}

// colMass returns the units column j carries (every source carries
// red.scale).
func (bp *bipartite) colMass(j int) int64 {
	if j < len(bp.opposite) {
		return bp.red.scale
	}
	return bp.red.banks[j-len(bp.opposite)].units
}

// supMass and demMass return the units of supply node u and demand
// node v.
func (bp *bipartite) supMass(u int) int64 {
	if bp.rev {
		return bp.colMass(u)
	}
	return bp.red.scale
}

func (bp *bipartite) demMass(v int) int64 {
	if bp.rev {
		return bp.red.scale
	}
	return bp.colMass(v)
}

// capped saturates a fan-out distance at the instance's inf cost.
func (bp *bipartite) capped(d int64) int64 {
	if d >= sssp.Unreachable || d > bp.inf {
		return bp.inf
	}
	return d
}

// unknown reports whether cell (k, j) lies past its row's radius, so
// that it holds a lower bound rather than the distance.
func (bp *bipartite) unknown(k, j int) bool {
	return bp.radius != nil && bp.rows[k][j] > bp.radius[k]
}

// cost returns the unit cost between source k and column j: on an
// unknown cell, a lower bound on it.
func (bp *bipartite) cost(k, j int) int64 {
	d := bp.capped(bp.rows[k][j])
	if j >= len(bp.opposite) {
		d += bp.gamma
	}
	return d
}

// boundRow records the radius r of row k's search: the row is exact
// within r, and every cell past it, whose distance exceeds r, holds
// r+1, a lower bound. A radius at or past inf leaves the row complete,
// since every cell past inf saturates anyway.
func (bp *bipartite) boundRow(k int, r int64) {
	if r >= bp.inf {
		if bp.radius != nil {
			bp.radius[k] = sssp.Unreachable
		}
		return
	}
	bp.radius[k] = r
	for j, d := range bp.rows[k] {
		if d > r {
			bp.rows[k][j] = r + 1
		}
	}
}

// crossedRows returns the rows in which nw, bp's solved network, routes
// flow over an unknown cell. With none, and no left-out cell of
// negative reduced cost (see priceIn), the plan is optimal under the
// true distances too: it costs the same under them, and every other
// plan costs at least as much under them as under the lower bounds.
func (bp *bipartite) crossedRows(nw *flow.Network) []int32 {
	if bp.radius == nil {
		return nil
	}
	var crossed []int32
	for k, row := range bp.rows {
		for j := range row {
			if a := bp.arc(k, j); a >= 0 && bp.unknown(k, j) && nw.Flow(a) > 0 {
				crossed = append(crossed, int32(k))
				break
			}
		}
	}
	return crossed
}

// ends returns the supply and demand network nodes of cell (k, j) and
// the capacity of its arc.
func (bp *bipartite) ends(k, j int) (u, v int, capacity int64) {
	u, v = bp.rowNode(k), bp.colNode(j)
	if bp.rev {
		u, v = v, u
	}
	return u, v, min(bp.red.scale, bp.colMass(j))
}

// addArc adds cell (k, j)'s arc to nw and records it in bp.arcs.
func (bp *bipartite) addArc(nw *flow.Network, k, j int) {
	u, v, capacity := bp.ends(k, j)
	bp.arcs[k*bp.nCols()+j] = int32(nw.AddArc(u, v, capacity, bp.cost(k, j)))
}

// priceIn adds to nw, bp's solved network, every left-out cell whose
// cost (a lower bound on an unknown cell) has a negative reduced cost
// under nw's potentials, and returns how many it added. With none, the
// solved plan is optimal over every cell: the potentials stay dual
// feasible with them, and their arcs carry no flow.
func (bp *bipartite) priceIn(nw *flow.Network) int {
	if bp.arcs == nil {
		return 0
	}
	added, nCols := 0, bp.nCols()
	for k := range bp.rows {
		for j := 0; j < nCols; j++ {
			if bp.arcs[k*nCols+j] >= 0 {
				continue
			}
			if u, v, _ := bp.ends(k, j); bp.cost(k, j)+nw.Price(u)-nw.Price(v) < 0 {
				bp.addArc(nw, k, j)
				added++
			}
		}
	}
	return added
}

// reprice sets the costs of the arcs in rows ks, just completed, to
// their true distances.
func (bp *bipartite) reprice(nw *flow.Network, ks []int32) {
	for _, k := range ks {
		for j := 0; j < bp.nCols(); j++ {
			if a := bp.arc(int(k), j); a >= 0 {
				nw.SetCost(a, bp.cost(int(k), j))
			}
		}
	}
}

// network assembles the scaled integral flow instance in sc's reusable
// network. Over complete rows it holds every cell. Over partial rows it
// holds the cells keepCells marks; solveRows prices the others.
func (bp *bipartite) network(sc *scratch) *flow.Network {
	nSup, nDem := bp.shape()
	bp.arcs = nil
	cells := nSup * nDem
	if bp.radius != nil {
		cells = bp.keepCells(sc)
	}
	nw := sc.network(nSup+nDem, cells)
	for u := 0; u < nSup; u++ {
		nw.SetExcess(u, bp.supMass(u))
	}
	for v := 0; v < nDem; v++ {
		nw.SetExcess(nSup+v, -bp.demMass(v))
	}
	for u := 0; u < nSup; u++ {
		for v := 0; v < nDem; v++ {
			k, j := bp.cell(u, v)
			switch {
			case bp.arcs == nil:
				nw.AddArc(u, nSup+v, min(bp.supMass(u), bp.demMass(v)), bp.cost(k, j))
			case bp.arcs[k*bp.nCols()+j] == keepCell:
				bp.addArc(nw, k, j)
			}
		}
	}
	return nw
}

// keepCell marks a cell of bp.arcs for the network until its arc is
// added.
const keepCell = -2

// keepCells lays out bp.arcs over partial rows, marking the cells the
// network holds: the known ones, every cell of a column whose known
// cells cannot absorb its mass, and the forced ones, which keep the
// instance feasible. It returns how many it marked.
func (bp *bipartite) keepCells(sc *scratch) int {
	nCols := bp.nCols()
	arcs := sc.takeArcs(len(bp.sources) * nCols)
	absorb := sc.takeBoundBuf(nCols)
	clear(absorb)
	for k := range bp.rows {
		for j := 0; j < nCols; j++ {
			arcs[k*nCols+j] = -1
			if !bp.unknown(k, j) {
				arcs[k*nCols+j] = keepCell
				absorb[j] += min(bp.red.scale, bp.colMass(j))
			}
		}
	}
	for j := 0; j < nCols; j++ {
		if absorb[j] < bp.colMass(j) {
			for k := range bp.rows {
				arcs[k*nCols+j] = keepCell
			}
		}
	}
	for _, c := range bp.forced {
		arcs[c] = keepCell
	}
	cells := 0
	for _, a := range arcs {
		if a == keepCell {
			cells++
		}
	}
	bp.arcs = arcs
	return cells
}
