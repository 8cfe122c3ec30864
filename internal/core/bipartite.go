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
// supplier side (rev) the columns supply and the sources demand. In
// both orientations arc (u, v) of supply node u and demand node v is
// the row-major forward arc 2*(u*nDem+v), its capacity is the smaller
// of the two masses, and its cost is the capped cell plus gamma on a
// bank column. Every consumer — bound gate, entropic stage, assembly,
// warm transplant and Explain — reads the instance through this type.
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

// arc returns the forward-arc id joining source k and column j.
func (bp *bipartite) arc(k, j int) int {
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

// crossedRows returns the rows in which nw, bp's solved network, routes
// flow over an unknown cell. With none, the plan is optimal under the
// true distances too: it costs the same under them, and every other
// plan costs at least as much under them as under the lower bounds.
func (bp *bipartite) crossedRows(nw *flow.Network) []int32 {
	if bp.radius == nil {
		return nil
	}
	var crossed []int32
	for k, row := range bp.rows {
		for j := range row {
			if bp.unknown(k, j) && nw.Flow(bp.arc(k, j)) > 0 {
				crossed = append(crossed, int32(k))
				break
			}
		}
	}
	return crossed
}

// openRows returns the rows that are still partial.
func (bp *bipartite) openRows() []int32 {
	var ks []int32
	for k, r := range bp.radius {
		if r != sssp.Unreachable {
			ks = append(ks, int32(k))
		}
	}
	return ks
}

// network assembles the scaled integral flow instance in sc's reusable
// network.
func (bp *bipartite) network(sc *scratch) *flow.Network {
	nSup, nDem := bp.shape()
	nw := sc.network(nSup+nDem, nSup*nDem)
	for v := 0; v < nDem; v++ {
		nw.SetExcess(nSup+v, -bp.demMass(v))
	}
	for u := 0; u < nSup; u++ {
		sup := bp.supMass(u)
		nw.SetExcess(u, sup)
		for v := 0; v < nDem; v++ {
			k, j := bp.cell(u, v)
			nw.AddArc(u, nSup+v, min(sup, bp.demMass(v)), bp.cost(k, j))
		}
	}
	return nw
}
