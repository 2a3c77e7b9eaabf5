package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/relation"
	"repro/internal/reltest"
)

// coefAt is the oracle: a coefficient's value for one row, computed the
// row-at-a-time way — a cell read through Relation.Float, composed in the
// order the kinds define. coefRow is held to it bit for bit, from either
// cell source: the ILP's matrix must not move by an ulp.
func coefAt(c Coef, r *relation.Relation, row int) float64 {
	switch c := c.(type) {
	case UnitCoef:
		return 1
	case AttrCoef:
		return r.Float(row, r.Schema().Lookup(c.Attr))
	case ShiftedAttrCoef:
		return r.Float(row, r.Schema().Lookup(c.Attr)) + c.Shift
	case ScaledCoef:
		return c.W * coefAt(c.Inner, r, row)
	case SumCoef:
		s := 0.0
		for _, p := range c.Parts {
			s += coefAt(p, r, row)
		}
		return s
	case CondCoef:
		one := []int{row}
		if len(c.Pred.Bind(r)(one, one)) == 1 {
			return coefAt(c.Inner, r, row)
		}
		return 0
	}
	panic("oracle: unknown coefficient kind")
}

func randomCoef(rng *rand.Rand, depth int) Coef {
	attrs := []string{"x", "y", "k"}
	if depth > 0 {
		switch rng.Intn(5) {
		case 0:
			return ScaledCoef{W: []float64{-1, 0.1, 3, 1e-9}[rng.Intn(4)], Inner: randomCoef(rng, depth-1)}
		case 1:
			parts := make([]Coef, 1+rng.Intn(3))
			for i := range parts {
				parts[i] = randomCoef(rng, depth-1)
			}
			return SumCoef{Parts: parts}
		case 2:
			preds := []relation.Predicate{
				relation.NewCompare("x", relation.GT, relation.F(0)),
				&relation.Not{Kid: relation.NewCompare("tag", relation.EQ, relation.S("a"))},
				&relation.Between{Col: "k", Lo: -1, Hi: 1},
			}
			return CondCoef{Pred: preds[rng.Intn(len(preds))], Inner: randomCoef(rng, depth-1)}
		}
	}
	switch rng.Intn(3) {
	case 0:
		return UnitCoef{}
	case 1:
		return AttrCoef{Attr: attrs[rng.Intn(len(attrs))]}
	}
	return ShiftedAttrCoef{Attr: attrs[rng.Intn(len(attrs))], Shift: rng.NormFloat64()}
}

// TestCoefRowMatchesRowOracle: every coefficient kind, nested at random
// over a Float, a Float with NaN and -0 cells, and an Int column, evaluates
// to exactly the bits the row-at-a-time oracle computes — over ascending
// rows and over a shuffled list with repeats, as a package's rows can be —
// from both cell sources: gathered from the relation, and served as
// slices the way a view's group columns are. A bare attribute's row and
// COUNT's come back clipped (cap == len), and no served cell is written.
func TestCoefRowMatchesRowOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	rel := relation.New("t", reltest.Schema(
		relation.Column{Name: "x", Type: relation.Float},
		relation.Column{Name: "y", Type: relation.Float},
		relation.Column{Name: "k", Type: relation.Int},
		relation.Column{Name: "tag", Type: relation.String},
	))
	odd := []float64{math.NaN(), math.Copysign(0, -1), math.Inf(1), 1e300, -1e-300}
	for i := 0; i < 200; i++ {
		y := rng.NormFloat64()
		if i%9 == 0 {
			y = odd[rng.Intn(len(odd))]
		}
		reltest.Append(rel, relation.F(rng.NormFloat64()*10), relation.F(y),
			relation.I(int64(rng.Intn(9)-4)), relation.S(string(rune('a'+rng.Intn(3)))))
	}
	ascending := rel.AllRows()
	shuffled := append(append([]int(nil), ascending...), ascending[:50]...)
	rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
	// served lays rows' cells out per column (−1: ones), read row at a
	// time, each slice with spare capacity an evaluator must not expose.
	served := func(rows []int) map[int][]float64 {
		cols := map[int][]float64{}
		for col := -1; col < 3; col++ {
			cells := make([]float64, len(rows), len(rows)+1)
			for j, row := range rows {
				cells[j] = 1
				if col >= 0 {
					cells[j] = rel.Float(row, col)
				}
			}
			cols[col] = cells
		}
		return cols
	}
	for trial := 0; trial < 300; trial++ {
		coef := randomCoef(rng, 3)
		for _, rows := range [][]int{ascending, shuffled, ascending[:1], nil} {
			cols := served(rows)
			orig := served(rows)
			for _, cells := range []Cells{nil, func(col int) []float64 { return cols[col] }} {
				got, err := coefRow(coef, rel, cells, rows)
				if err != nil {
					t.Fatalf("%s: %v", coef, err)
				}
				if len(got) != len(rows) {
					t.Fatalf("%s: row of %d coefficients over %d rows", coef, len(got), len(rows))
				}
				switch coef.(type) {
				case UnitCoef, AttrCoef:
					if cap(got) != len(got) {
						t.Fatalf("%s: row has cap %d over len %d: an append would write the source", coef, cap(got), len(got))
					}
				}
				for j, row := range rows {
					if want := coefAt(coef, rel, row); math.Float64bits(got[j]) != math.Float64bits(want) {
						t.Fatalf("%s, row %d (served %v): coefRow gives %v (%#x), the row oracle %v (%#x)",
							coef, row, cells != nil, got[j], math.Float64bits(got[j]), want, math.Float64bits(want))
					}
				}
			}
			for col, cells := range cols {
				for j := range cells {
					if math.Float64bits(cells[j]) != math.Float64bits(orig[col][j]) {
						t.Fatalf("%s: served column %d written at %d", coef, col, j)
					}
				}
			}
		}
	}
}

// TestFilteredCountBaseAllocsIndependentOfRows is the filtered twin of
// paq's TestPrepareAllocationIndependentOfRows: counting the base
// relation behind a WHERE and a MAX restriction allocates the bound
// predicate and one block of row ids, the same at ten times the rows.
func TestFilteredCountBaseAllocsIndependentOfRows(t *testing.T) {
	bytesPerCount := func(n int) uint64 {
		rel := relation.New("t", reltest.Schema(
			relation.Column{Name: "a", Type: relation.Float},
			relation.Column{Name: "tag", Type: relation.String},
		))
		for i := 0; i < n; i++ {
			reltest.Append(rel, relation.F(float64(i%10)), relation.S(string(rune('a'+i%3))))
		}
		spec := &Spec{
			Rel:          rel,
			Base:         relation.NewCompare("tag", relation.NE, relation.S("b")),
			Restrictions: []relation.Predicate{relation.NewCompare("a", relation.LE, relation.F(6))},
		}
		if got, want := spec.CountBase(), len(spec.BaseRows()); got != want || got == 0 {
			t.Fatalf("%d rows: CountBase = %d, BaseRows has %d", n, got, want)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const reps = 10
		for i := 0; i < reps; i++ {
			spec.CountBase()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / reps
	}
	small, large := bytesPerCount(2_000), bytesPerCount(20_000)
	if large > small+1024 {
		t.Errorf("CountBase allocates %d bytes over 2 000 rows and %d over 20 000", small, large)
	}
}
