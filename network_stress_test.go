package snd

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestNetworkConcurrentMixedTraffic hammers one Network from many
// goroutines mixing the full API surface — a StepFrom writer advancing
// its own state lineage, Distance readers, a Matrix reader — and pins
// every result bit-identical to the sequential interleaving. The
// engine's contract makes this checkable: Distance/Matrix/StepFrom
// results are pure functions of their input states, so caching,
// sharded-provider churn (the StepFrom writer evicts and derives
// window entries while readers race them), the shared warm ring, and
// work stealing must never leak into a value. Run under -race this is the contention-path coverage
// for the sharded ground provider.
func TestNetworkConcurrentMixedTraffic(t *testing.T) {
	const (
		n       = 300
		ticks   = 10
		readers = 2
		rounds  = 4
	)
	g := ScaleFreeGraph(ScaleFreeConfig{
		N: n, OutDeg: 5, Exponent: -2.3, Reciprocity: 0.2, Seed: 601,
	})
	rng := rand.New(rand.NewSource(602))
	base := NewState(n)
	for i := range base {
		if rng.Float64() < 0.25 {
			base[i] = Opinion(1 - 2*rng.Intn(2))
		}
	}
	// Precompute the delta trajectory and the states it visits.
	deltas := make([]StateDelta, ticks)
	trajectory := []State{base.Clone()}
	cur := base.Clone()
	for tk := range deltas {
		var d StateDelta
		used := map[int]bool{}
		for len(d) < 6 {
			u := rng.Intn(n)
			if used[u] {
				continue
			}
			used[u] = true
			op := Opinion(rng.Intn(3) - 1)
			for op == cur[u] {
				op = Opinion(rng.Intn(3) - 1)
			}
			d = append(d, OpinionChange{User: u, Opinion: op})
			cur[u] = op
		}
		deltas[tk] = d
		trajectory = append(trajectory, cur.Clone())
	}
	opts := DefaultOptions()
	ctx := context.Background()

	// Sequential ground truth: step results on a single-worker handle,
	// reader pairs and the matrix on plain Distance/Matrix calls.
	seq := NewNetwork(g, opts, EngineConfig{Workers: 1})
	wantStep := make([]float64, ticks)
	seqCur := base
	for tk, d := range deltas {
		next, r, err := seq.StepFrom(ctx, seqCur, d)
		if err != nil {
			t.Fatalf("sequential step %d: %v", tk, err)
		}
		wantStep[tk] = r.SND
		seqCur = next
	}
	type pair struct{ a, b int } // trajectory indices
	pairs := []pair{{0, 1}, {2, 5}, {1, ticks}, {4, 7}, {0, ticks}}
	wantDist := make([]float64, len(pairs))
	for i, pr := range pairs {
		r, err := seq.Distance(ctx, trajectory[pr.a], trajectory[pr.b])
		if err != nil {
			t.Fatalf("sequential pair %d: %v", i, err)
		}
		wantDist[i] = r.SND
	}
	matrixStates := trajectory[:4]
	wantMatrix, err := seq.Matrix(ctx, matrixStates)
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth for the close storm below: a continuation of the
	// step trajectory (seqCur equals trajectory[ticks] here), a Series
	// window, an anomaly report, and an independent StepFrom lineage
	// rooted mid-trajectory.
	const ticks2 = 6
	deltas2 := make([]StateDelta, ticks2)
	cur2 := trajectory[ticks].Clone()
	for tk := range deltas2 {
		var d StateDelta
		used := map[int]bool{}
		for len(d) < 4 {
			u := rng.Intn(n)
			if used[u] {
				continue
			}
			used[u] = true
			op := Opinion(rng.Intn(3) - 1)
			for op == cur2[u] {
				op = Opinion(rng.Intn(3) - 1)
			}
			d = append(d, OpinionChange{User: u, Opinion: op})
			cur2[u] = op
		}
		deltas2[tk] = d
	}
	wantStep2 := make([]float64, ticks2)
	for tk, d := range deltas2 {
		next, r, err := seq.StepFrom(ctx, seqCur, d)
		if err != nil {
			t.Fatalf("sequential step2 %d: %v", tk, err)
		}
		wantStep2[tk] = r.SND
		seqCur = next
	}
	wantSeries, err := seq.Series(ctx, trajectory[:5])
	if err != nil {
		t.Fatal(err)
	}
	wantReport, err := seq.DetectAnomalies(ctx, trajectory[:5])
	if err != nil {
		t.Fatal(err)
	}
	wantFrom := make([]float64, ticks2)
	curFrom := trajectory[2]
	for tk, d := range deltas2 {
		next, r, err := seq.StepFrom(ctx, curFrom, d)
		if err != nil {
			t.Fatalf("sequential StepFrom %d: %v", tk, err)
		}
		wantFrom[tk] = r.SND
		curFrom = next
	}
	if err := seq.Close(); err != nil {
		t.Fatal(err)
	}

	// Concurrent run: one writer stepping its state lineage, Distance
	// readers replaying the pairs, a Matrix reader — all on one handle.
	nw := NewNetwork(g, opts, EngineConfig{Workers: 4})
	var wg sync.WaitGroup
	errc := make(chan error, readers+2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		cur := base
		for tk, d := range deltas {
			next, r, err := nw.StepFrom(ctx, cur, d)
			if err != nil {
				errc <- fmt.Errorf("step %d: %v", tk, err)
				return
			}
			if r.SND != wantStep[tk] {
				errc <- fmt.Errorf("step %d: SND = %v under concurrency, want %v", tk, r.SND, wantStep[tk])
				return
			}
			cur = next
		}
	}()
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for i, pr := range pairs {
					r, err := nw.Distance(ctx, trajectory[pr.a], trajectory[pr.b])
					if err != nil {
						errc <- fmt.Errorf("reader %d pair %d: %v", rd, i, err)
						return
					}
					if r.SND != wantDist[i] {
						errc <- fmt.Errorf("reader %d pair %d: SND = %v under concurrency, want %v", rd, i, r.SND, wantDist[i])
						return
					}
				}
			}
		}(rd)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < rounds/2; round++ {
			m, err := nw.Matrix(ctx, matrixStates)
			if err != nil {
				errc <- fmt.Errorf("matrix round %d: %v", round, err)
				return
			}
			if !reflect.DeepEqual(m, wantMatrix) {
				errc <- fmt.Errorf("matrix round %d diverged under concurrency", round)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Close storm: the whole API surface races one Close. Every call
	// must either return the exact sequential value or fail with an
	// error wrapping ErrEngineClosed — never a wrong value, never a
	// different sentinel, never a panic. closeStormErr centralizes the
	// assertion: a nil or ErrEngineClosed error passes, anything else
	// is reported.
	var cwg sync.WaitGroup
	cerrc := make(chan error, 16)
	stormErr := func(what string, err error) bool {
		if err == nil {
			return false
		}
		if !errors.Is(err, ErrEngineClosed) {
			cerrc <- fmt.Errorf("close storm %s: error does not wrap ErrEngineClosed: %v", what, err)
		}
		return true
	}
	// Distance readers (value-pinned).
	for rd := 0; rd < 2; rd++ {
		cwg.Add(1)
		go func(rd int) {
			defer cwg.Done()
			for i, pr := range pairs {
				r, err := nw.Distance(ctx, trajectory[pr.a], trajectory[pr.b])
				if stormErr(fmt.Sprintf("reader %d", rd), err) {
					return
				}
				if r.SND != wantDist[i] {
					cerrc <- fmt.Errorf("close storm reader %d pair %d: SND = %v, want %v", rd, i, r.SND, wantDist[i])
					return
				}
			}
		}(rd)
	}
	// Stepper continuing the writer's trajectory (value-pinned until
	// the close lands; after the first error it stops).
	cwg.Add(1)
	go func() {
		defer cwg.Done()
		cur := trajectory[ticks]
		for tk, d := range deltas2 {
			next, r, err := nw.StepFrom(ctx, cur, d)
			if stormErr(fmt.Sprintf("step %d", tk), err) {
				return
			}
			if r.SND != wantStep2[tk] {
				cerrc <- fmt.Errorf("close storm step %d: SND = %v, want %v", tk, r.SND, wantStep2[tk])
				return
			}
			cur = next
		}
	}()
	// Externally tracked StepFrom lineage (value-pinned, same rule).
	cwg.Add(1)
	go func() {
		defer cwg.Done()
		cur := trajectory[2]
		for tk, d := range deltas2 {
			next, r, err := nw.StepFrom(ctx, cur, d)
			if stormErr(fmt.Sprintf("stepfrom %d", tk), err) {
				return
			}
			if r.SND != wantFrom[tk] {
				cerrc <- fmt.Errorf("close storm StepFrom %d: SND = %v, want %v", tk, r.SND, wantFrom[tk])
				return
			}
			cur = next
		}
	}()
	// Batch queries: Series, Matrix, DetectAnomalies, Explain.
	cwg.Add(1)
	go func() {
		defer cwg.Done()
		for round := 0; ; round++ {
			s, err := nw.Series(ctx, trajectory[:5])
			if stormErr("series", err) {
				return
			}
			if !reflect.DeepEqual(s, wantSeries) {
				cerrc <- fmt.Errorf("close storm series diverged")
				return
			}
			rep, err := nw.DetectAnomalies(ctx, trajectory[:5])
			if stormErr("anomalies", err) {
				return
			}
			if !reflect.DeepEqual(rep.Scores, wantReport.Scores) {
				cerrc <- fmt.Errorf("close storm anomaly scores diverged")
				return
			}
			m, err := nw.Matrix(ctx, matrixStates)
			if stormErr("matrix", err) {
				return
			}
			if !reflect.DeepEqual(m, wantMatrix) {
				cerrc <- fmt.Errorf("close storm matrix diverged")
				return
			}
			r, _, err := nw.Explain(ctx, trajectory[0], trajectory[1])
			if stormErr("explain", err) {
				return
			}
			if r.SND != wantDist[0] {
				cerrc <- fmt.Errorf("close storm explain: SND = %v, want %v", r.SND, wantDist[0])
				return
			}
		}
	}()
	// Lineage reporter: ApplyFrom feeds the provider a one-change
	// lineage off trajectory[0] until the close lands, and must then
	// fail only with ErrEngineClosed.
	cwg.Add(1)
	go func() {
		defer cwg.Done()
		flip := StateDelta{{User: 0, Opinion: -trajectory[0][0]}}
		if flip[0].Opinion == trajectory[0][0] {
			flip[0].Opinion = Positive
		}
		for {
			if _, err := nw.ApplyFrom(trajectory[0], flip); stormErr("apply", err) {
				return
			}
		}
	}()
	if err := nw.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	cwg.Wait()
	close(cerrc)
	for err := range cerrc {
		t.Error(err)
	}

	// After the storm the handle is closed for good: every entry point
	// reports ErrEngineClosed, not an input sentinel — a short series
	// or an oversized state must not mask the close.
	if _, err := nw.Series(ctx, trajectory[:1]); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("Series on closed handle: %v, want ErrEngineClosed", err)
	}
	if _, err := nw.ApplyFrom(NewState(1), nil); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("ApplyFrom on closed handle: %v, want ErrEngineClosed", err)
	}
	if _, _, err := nw.StepFrom(ctx, NewState(1), nil); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("StepFrom on closed handle: %v, want ErrEngineClosed", err)
	}
}
