package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// packageLP builds a package-query-shaped relaxation: n variables in
// [0, 1], a COUNT(*) = k row, and m−1 SUM rows alternating ≤ and ≥ around
// k times the attribute mean, over attributes that rise (≤ rows) or fall
// (≥ rows) with the objective so that the rows bind and the optimum is
// fractional.
func packageLP(m, n int, seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	const k = 10
	p := &Problem{
		Maximize: true,
		C:        make([]float64, n),
		Hi:       make([]float64, n),
		A:        make([][]float64, m),
		Op:       make([]ConstraintOp, m),
		B:        make([]float64, m),
	}
	for j := 0; j < n; j++ {
		p.C[j] = rng.ExpFloat64()
		p.Hi[j] = 1
	}
	for i := range p.A {
		p.A[i] = make([]float64, n)
		for j := range p.A[i] {
			switch {
			case i == 0:
				p.A[i][j] = 1
			case i%2 == 1:
				p.A[i][j] = 12 + 3*p.C[j] + rng.NormFloat64()
			default:
				p.A[i][j] = 18 - 3*p.C[j] + rng.NormFloat64()
			}
		}
		switch {
		case i == 0:
			p.Op[i], p.B[i] = EQ, k
		case i%2 == 1:
			p.Op[i], p.B[i] = LE, k*15.1
		default:
			p.Op[i], p.B[i] = GE, k*14.9
		}
	}
	return p
}

// fractional returns a variable strictly between its bounds at the
// workspace's optimum — what branch and bound would branch on — or -1.
func fractional(w *Workspace) int {
	for j, v := range w.X() {
		if v > 1e-6 && v < 1-1e-6 {
			return j
		}
	}
	return -1
}

// flip makes the k-th of a cycle of branch-and-bound moves on variable
// j: fix it up, fix it down, release it.
func flip(w *Workspace, j, k int) error {
	b := [3][2]float64{{1, 1}, {0, 0}, {0, 1}}[k%3]
	return w.SetBounds(j, b[0], b[1])
}

// TestReoptimizeMatchesColdSolve: a workspace walked through a random
// sequence of branch-and-bound-like bound changes (fix up, fix down,
// release) reports after every warm re-optimize what a cold solve of the
// same bounds reports.
func TestReoptimizeMatchesColdSolve(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 6; seed++ {
		p := packageLP(3+int(seed)%3, 400, seed)
		w, err := NewWorkspace(p)
		if err != nil {
			t.Fatal(err)
		}
		if st, err := w.Solve(ctx); err != nil || st != Optimal {
			t.Fatalf("seed %d: root %v, %v", seed, st, err)
		}
		cur := *p
		cur.Lo, cur.Hi = make([]float64, 400), append([]float64(nil), p.Hi...)
		rng := rand.New(rand.NewSource(seed))
		var changed []int
		for step := 0; step < 200; step++ {
			j := fractional(w)
			switch {
			case j >= 0 && rng.Intn(4) > 0:
				v := float64(rng.Intn(2))
				cur.Lo[j], cur.Hi[j] = v, v
				changed = append(changed, j)
			case len(changed) > 0:
				// Jump: release a few earlier branchings at once.
				for k := rng.Intn(3) + 1; k > 0 && len(changed) > 0; k-- {
					i := rng.Intn(len(changed))
					cur.Lo[changed[i]], cur.Hi[changed[i]] = 0, 1
					changed = append(changed[:i], changed[i+1:]...)
				}
			default:
				j = rng.Intn(400)
				cur.Lo[j], cur.Hi[j] = 1, 1
				changed = append(changed, j)
			}
			for j := range cur.Lo {
				if err := w.SetBounds(j, cur.Lo[j], cur.Hi[j]); err != nil {
					t.Fatal(err)
				}
			}
			st, err := w.Reoptimize(ctx)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := SolveCtx(ctx, &cur)
			if err != nil {
				t.Fatal(err)
			}
			if st != cold.Status {
				t.Fatalf("seed %d step %d: warm %v, cold %v", seed, step, st, cold.Status)
			}
			if st == Optimal && math.Abs(w.Objective()-cold.Objective) > 1e-9*math.Max(1, math.Abs(cold.Objective)) {
				t.Fatalf("seed %d step %d: warm objective %.12g, cold %.12g", seed, step, w.Objective(), cold.Objective)
			}
			if st == Optimal {
				checkFeasible(t, &cur, w.X(), 1e-6)
			}
		}
		if s := w.Stats(); s.WarmSolves < 150 || s.DualIterations == 0 {
			t.Errorf("seed %d: %+v — the warm path was not exercised", seed, s)
		}
	}
}

// TestIterationCapReportsIterLimit: a solve that runs out of iterations
// says so, cold or as the fallback of a warm start, and the workspace
// recovers once the cap allows.
func TestIterationCapReportsIterLimit(t *testing.T) {
	ctx := context.Background()
	w, err := NewWorkspace(packageLP(3, 200, 1))
	if err != nil {
		t.Fatal(err)
	}
	budget := w.maxIter
	w.maxIter = 2
	if st, err := w.Solve(ctx); err != nil || st != IterLimit {
		t.Fatalf("capped Solve: %v, %v; want iteration-limit", st, err)
	}
	if st, err := w.Reoptimize(ctx); err != nil || st != IterLimit {
		t.Fatalf("capped Reoptimize with no basis: %v, %v; want iteration-limit", st, err)
	}
	w.maxIter = budget
	if st, err := w.Reoptimize(ctx); err != nil || st != Optimal {
		t.Fatalf("uncapped Reoptimize: %v, %v; want optimal", st, err)
	}
	// A warm start that cannot finish falls back to a cold solve, which
	// cannot finish either.
	j := fractional(w)
	if j < 0 {
		t.Fatal("fixture has an integral relaxation")
	}
	if err := w.SetBounds(j, 1, 1); err != nil {
		t.Fatal(err)
	}
	w.maxIter = 0
	if st, err := w.Reoptimize(ctx); err != nil || st != IterLimit {
		t.Fatalf("capped warm Reoptimize: %v, %v; want iteration-limit", st, err)
	}
	if s := w.Stats(); s.WarmSolves != 1 || s.ColdSolves != 4 {
		t.Errorf("stats %+v, want 1 warm solve and 4 cold (3 explicit or basis-less, 1 fallback)", s)
	}
}

func TestSetBoundsContract(t *testing.T) {
	ctx := context.Background()
	w, err := NewWorkspace(packageLP(3, 50, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][3]float64{{-1, 0, 1}, {50, 0, 1}, {0, math.Inf(-1), math.Inf(1)}, {0, math.NaN(), 1}} {
		if err := w.SetBounds(int(bad[0]), bad[1], bad[2]); !errors.Is(err, ErrBadProblem) {
			t.Errorf("SetBounds(%v, %v, %v) = %v, want ErrBadProblem", bad[0], bad[1], bad[2], err)
		}
	}
	if st, _ := w.Solve(ctx); st != Optimal {
		t.Fatalf("root %v", st)
	}
	want := w.Objective()
	// An empty domain is an infeasible node, not an error, warm or cold;
	// widening it again restores the optimum.
	if err := w.SetBounds(7, 2, 1); err != nil {
		t.Fatal(err)
	}
	if st, _ := w.Reoptimize(ctx); st != Infeasible {
		t.Errorf("empty domain, warm: %v", st)
	}
	if st, _ := w.Solve(ctx); st != Infeasible {
		t.Errorf("empty domain, cold: %v", st)
	}
	if err := w.SetBounds(7, 0, 1); err != nil {
		t.Fatal(err)
	}
	if st, _ := w.Reoptimize(ctx); st != Optimal || math.Abs(w.Objective()-want) > 1e-9 {
		t.Errorf("after widening: %v objective %g, want optimal %g", st, w.Objective(), want)
	}
}

// TestCancellationWithin64Iterations: a canceled context stops a cold
// solve at its first poll and a run of short re-optimizations within 64
// simplex iterations in total.
func TestCancellationWithin64Iterations(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := packageLP(5, 2000, 3)
	w, err := NewWorkspace(p)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := w.Solve(ctx); err != nil || st != Optimal {
		t.Fatalf("root %v, %v", st, err)
	}
	cancel()
	if _, err := SolveCtx(ctx, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("cold solve under a canceled context: %v", err)
	}
	j := fractional(w)
	if j < 0 {
		t.Fatal("fixture has an integral relaxation")
	}
	before := w.Stats()
	spent := func() int {
		s := w.Stats()
		return s.DualIterations + s.PrimalIterations - before.DualIterations - before.PrimalIterations
	}
	for k := 0; k < 1000; k++ {
		if err := flip(w, j, k); err != nil {
			t.Fatal(err)
		}
		_, err := w.Reoptimize(ctx)
		if errors.Is(err, context.Canceled) {
			t.Logf("canceled after %d iterations over %d re-optimizations", spent(), k+1)
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if spent() > 64 {
			t.Fatalf("still running %d iterations after cancellation", spent())
		}
	}
	t.Fatalf("1000 re-optimizations (%d iterations) never saw the cancellation", spent())
}

// BenchmarkReoptimize is the LP rung of the ladder: one bound of a
// package-shaped relaxation flipped per op (fix the first fractional
// variable up, then down, then release it) and re-optimized warm.
func BenchmarkReoptimize(b *testing.B) {
	ctx := context.Background()
	for _, m := range []int{3, 5} {
		for _, n := range []int{1000, 100000} {
			b.Run(fmt.Sprintf("m=%d/n=%d", m, n), func(b *testing.B) {
				w, err := NewWorkspace(packageLP(m, n, 1))
				if err != nil {
					b.Fatal(err)
				}
				if st, err := w.Solve(ctx); err != nil || st != Optimal {
					b.Fatalf("root %v, %v", st, err)
				}
				j := fractional(w)
				if j < 0 {
					b.Fatal("fixture has an integral relaxation")
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := flip(w, j, i); err != nil {
						b.Fatal(err)
					}
					if _, err := w.Reoptimize(ctx); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				s := w.Stats()
				b.ReportMetric(float64(s.DualIterations)/float64(b.N), "pivots/op")
				if s.ColdSolves != 1 {
					b.Fatalf("%d cold solves: the benchmark is meant to stay warm", s.ColdSolves)
				}
			})
		}
	}
}
