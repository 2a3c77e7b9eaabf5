package ilp_test

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ilp"
	"repro/internal/lp"
)

// pairScanBefore is local search's pair scan as it stood before block
// tops: every package member a against every variable b, each row asked
// in order. It is the oracle the block-skipping scan must match bit for
// bit.
func pairScanBefore(p *ilp.Problem, sense float64, x, act, baseLo, baseHi []float64) {
	n, m := len(x), len(act)
	integral := func(j int) bool { return p.Integer == nil || p.Integer[j] }
	rowOK := func(i int, v float64) bool {
		switch p.LP.Op[i] {
		case lp.LE:
			return v <= p.LP.B[i]+1e-7
		case lp.GE:
			return v >= p.LP.B[i]-1e-7
		}
		return math.Abs(v-p.LP.B[i]) <= 1e-7
	}
	feasibleAfter := func(a, b int) bool {
		for i := 0; i < m; i++ {
			if !rowOK(i, act[i]-p.LP.A[i][a]+p.LP.A[i][b]) {
				return false
			}
		}
		return true
	}
	for pass, improved := 0, true; pass < 4 && improved; pass++ {
		improved = false
		for a := 0; a < n; a++ {
			if !integral(a) || x[a] <= baseLo[a]+1e-9 {
				continue
			}
			for b := 0; b < n; b++ {
				if b == a || !integral(b) || x[b] >= baseHi[b]-1e-9 || sense*(p.LP.C[b]-p.LP.C[a]) <= 1e-12 || !feasibleAfter(a, b) {
					continue
				}
				x[a]--
				x[b]++
				for i := 0; i < m; i++ {
					act[i] += p.LP.A[i][b] - p.LP.A[i][a]
				}
				if improved = true; x[a] <= baseLo[a]+1e-9 {
					break
				}
			}
		}
	}
}

// activity is A·x, summed over x's nonzeros in ascending order as accept
// sums a package.
func activity(p *ilp.Problem, x []float64) []float64 {
	act := make([]float64, len(p.LP.A))
	for j, xj := range x {
		for i, row := range p.LP.A {
			if xj != 0 {
				act[i] += row[j] * xj
			}
		}
	}
	return act
}

// baseBounds are the bounds a solve searches within: the problem's, an
// integral variable's rounded inward to integers.
func baseBounds(p *ilp.Problem) (lo, hi []float64) {
	n := p.LP.NumVars()
	lo, hi = make([]float64, n), make([]float64, n)
	for j := range n {
		l, h := p.LP.Bounds(j)
		if p.Integer == nil || p.Integer[j] {
			l, h = math.Ceil(l-1e-6), math.Floor(h+1e-6)
		}
		lo[j], hi[j] = l, h
	}
	return lo, hi
}

// sameSearch runs the old and the block-skipping scan from x and reports
// whether they leave bit-identical points and activities, and whether
// either moved x at all. tops is handed over as the pool would: holding
// whatever the last search left in it.
func sameSearch(t *testing.T, what string, p *ilp.Problem, sense float64, x, lo, hi []float64, tops *[]float64) (moved bool) {
	t.Helper()
	wantX, wantAct := slices.Clone(x), activity(p, x)
	gotX, gotAct := slices.Clone(x), slices.Clone(wantAct)
	pairScanBefore(p, sense, wantX, wantAct, lo, hi)
	*tops = slices.Grow((*tops)[:0], ilp.Blocks(len(x)))[:ilp.Blocks(len(x))]
	ilp.LocalSearch(p, sense, gotX, gotAct, lo, hi, *tops)
	for j := range x {
		if math.Float64bits(gotX[j]) != math.Float64bits(wantX[j]) {
			t.Fatalf("%s: x[%d] = %v, want %v", what, j, gotX[j], wantX[j])
		}
	}
	for i := range wantAct {
		if math.Float64bits(gotAct[i]) != math.Float64bits(wantAct[i]) {
			t.Fatalf("%s: act[%d] = %v, want %v", what, i, gotAct[i], wantAct[i])
		}
	}
	return !slices.Equal(wantX, x)
}

// randomSearchProblem is a point of a random package-query-shaped ILP:
// n variables of REPEAT 0–3 (every variable binary at REPEAT 0, some
// continuous in mixed instances), 1–7 rows of every op through the point
// with slack, COUNT-like rows among them, and costs drawn from a few
// levels with offsets about 1e-12, so block tops tie a member's cost.
// With inf, some costs are ±Inf.
func randomSearchProblem(rng *rand.Rand, inf bool) (*ilp.Problem, []float64, float64) {
	n, m, repeat := 1+rng.Intn(400), 1+rng.Intn(7), rng.Intn(4)
	p := &ilp.Problem{LP: lp.Problem{Maximize: rng.Intn(2) == 0, C: make([]float64, n), Hi: make([]float64, n), Lo: make([]float64, n)}}
	if rng.Intn(3) == 0 {
		p.Integer = make([]bool, n)
		for j := range n {
			p.Integer[j] = rng.Intn(8) != 0
		}
	}
	levels := []float64{0, 1, 1 + 1e-12, 1 - 1e-12, 1 + 2e-12, 2.5, -3, 1e6, 1e6 + 1e-10}
	x := make([]float64, n)
	for j := range n {
		p.LP.C[j] = levels[rng.Intn(len(levels))] + float64(rng.Intn(3))*rng.Float64()
		if rng.Intn(4) == 0 {
			p.LP.C[j] = levels[rng.Intn(len(levels))]
		}
		if inf && rng.Intn(6) == 0 {
			p.LP.C[j] = math.Inf(1 - 2*rng.Intn(2))
		}
		p.LP.Hi[j] = float64(repeat + 1)
		if rng.Intn(10) == 0 {
			p.LP.Lo[j] = 1
		}
		if rng.Intn(4) == 0 {
			x[j] = p.LP.Lo[j] + float64(rng.Intn(int(p.LP.Hi[j]-p.LP.Lo[j])+1))
		} else {
			x[j] = p.LP.Lo[j]
		}
	}
	for range m {
		row := make([]float64, n)
		count := rng.Intn(3) == 0
		for j := range row {
			if row[j] = 1; !count {
				row[j] = math.Round(rng.NormFloat64()*100) / 10
			}
		}
		p.LP.A = append(p.LP.A, row)
	}
	act := activity(p, x)
	for i := range m {
		slack := float64(rng.Intn(3)) * rng.Float64() * 5
		switch op := lp.ConstraintOp(rng.Intn(3)); op {
		case lp.LE:
			p.LP.Op, p.LP.B = append(p.LP.Op, op), append(p.LP.B, act[i]+slack)
		case lp.GE:
			p.LP.Op, p.LP.B = append(p.LP.Op, op), append(p.LP.B, act[i]-slack)
		default:
			p.LP.Op, p.LP.B = append(p.LP.Op, op), append(p.LP.B, act[i])
		}
	}
	sense := 1.0
	if !p.LP.Maximize {
		sense = -1
	}
	return p, x, sense
}

// TestLocalSearchMatchesPairScan: skipping the blocks whose top cannot
// beat a member, and asking the last refusing row first, changes no swap:
// from random points, points with ±Inf costs and the Galaxy incumbents,
// the scan leaves the bit-identical point and activity the scan over
// every pair does.
func TestLocalSearchMatchesPairScan(t *testing.T) {
	var tops []float64
	rng := rand.New(rand.NewSource(49))
	moved := 0
	for it := range 3000 {
		p, x, sense := randomSearchProblem(rng, it%3 == 0)
		lo, hi := baseBounds(p)
		if sameSearch(t, "random", p, sense, x, lo, hi, &tops) {
			moved++
		}
	}
	if moved < 1000 {
		t.Errorf("only %d of 3000 random points moved; the fixture does not exercise the scan", moved)
	}

	names, probs := galaxyProblems(t, 3000)
	for i, p := range probs {
		res, err := ilp.SolveCtx(context.Background(), p, ilp.Options{MaxNodes: 50000})
		if err != nil || !res.HasIncumbent {
			t.Fatalf("%s: %v, incumbent %v", names[i], err, res.HasIncumbent)
		}
		lo, hi := baseBounds(p)
		sense := 1.0
		if !p.LP.Maximize {
			sense = -1
		}
		x := res.Dense(p.LP.NumVars())
		sameSearch(t, names[i], p, sense, x, lo, hi, &tops)
		// The incumbent with its members moved onto random variables: a
		// point the scan has work to do from.
		gmoved := 0
		for range 20 {
			y := slices.Clone(x)
			for _, e := range res.Entries {
				if k := rng.Intn(len(y)); y[k] < hi[k] {
					y[e.J]--
					y[k]++
				}
			}
			if sameSearch(t, names[i], p, sense, y, lo, hi, &tops) {
				gmoved++
			}
		}
		t.Logf("%s: %d variables, %d rows, package of %d; %d of 20 perturbed incumbents moved", names[i], len(x), len(p.LP.A), len(res.Entries), gmoved)
	}
}
