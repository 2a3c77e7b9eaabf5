package relation

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// evalRow is the oracle: what a predicate means for one row, written the
// row-at-a-time way predicates used to be evaluated — look the column up
// by name, box the cell, dispatch on its type. The selections are held
// to it.
func evalRow(p Predicate, r *Relation, row int) bool {
	switch p := p.(type) {
	case *Compare:
		idx := r.Schema().Lookup(p.Col)
		if idx < 0 {
			return false
		}
		cell := r.Value(row, idx)
		if cell.Type() == String || p.Const.Type() == String {
			if cell.Type() != String || p.Const.Type() != String {
				return false
			}
			a, _ := cell.Str()
			b, _ := p.Const.Str()
			return cmpOracle(p.Op, a, b)
		}
		a, _ := cell.Float()
		b, _ := p.Const.Float()
		return cmpOracle(p.Op, a, b)
	case *Between:
		idx := r.Schema().Lookup(p.Col)
		if idx < 0 || !r.Schema().Col(idx).Type.Numeric() {
			return false
		}
		v := r.Float(row, idx)
		return v >= p.Lo && v <= p.Hi
	case *And:
		for _, k := range p.Kids {
			if !evalRow(k, r, row) {
				return false
			}
		}
		return true
	case *Or:
		for _, k := range p.Kids {
			if evalRow(k, r, row) {
				return true
			}
		}
		return false
	case *Not:
		return !evalRow(p.Kid, r, row)
	case *FuncPred:
		return p.Fn(r)(row)
	case True:
		return true
	}
	panic(fmt.Sprintf("oracle: unknown predicate %T", p))
}

// cmpOracle is op on two cells of one kind, in the language's own
// operators: a NaN on either side satisfies only "<>".
func cmpOracle[T float64 | string](op CmpOp, a, b T) bool {
	switch op {
	case EQ:
		return a == b
	case NE:
		return a != b
	case LT:
		return a < b
	case LE:
		return a <= b
	case GT:
		return a > b
	default:
		return a >= b
	}
}

// mixedRelation has a column of every type, NaN and ±Inf cells, repeated
// values (so = and <> both select something) and tombstones.
func mixedRelation(rng *rand.Rand, n int) *Relation {
	r := New("t", mustSchema(Column{"f", Float}, Column{"i", Int}, Column{"s", String}))
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, 2.5, -3}
	for k := 0; k < n; k++ {
		r.mustAppend(F(floats[rng.Intn(len(floats))]), I(int64(rng.Intn(7)-3)), S(string(rune('a'+rng.Intn(4)))))
	}
	for k := 0; k < n/5; k++ {
		_ = r.Delete(rng.Intn(n)) // deleting a row twice is an error, and harmless here
	}
	return r
}

// randomPredicate draws a tree over mixedRelation's columns, a column no
// relation has, and constants of both kinds on columns of both kinds.
func randomPredicate(rng *rand.Rand, depth int) Predicate {
	cols := []string{"f", "i", "s", "absent"}
	consts := []Value{F(0), F(1), F(2.5), F(math.NaN()), F(math.Inf(1)), I(-3), I(2), S("b"), S("")}
	if depth > 0 && rng.Intn(3) > 0 {
		kids := make([]Predicate, rng.Intn(4)) // an empty AND is TRUE, an empty OR selects nothing
		for k := range kids {
			kids[k] = randomPredicate(rng, depth-1)
		}
		switch rng.Intn(3) {
		case 0:
			return &And{Kids: kids}
		case 1:
			return &Or{Kids: kids}
		}
		return &Not{Kid: randomPredicate(rng, depth-1)}
	}
	switch rng.Intn(8) {
	case 0:
		return &Between{Col: cols[rng.Intn(len(cols))], Lo: float64(rng.Intn(5) - 3), Hi: float64(rng.Intn(5) - 1)}
	case 1:
		return True{}
	case 2:
		// f + i > 0, the way the PaQL compiler lowers arithmetic: columns
		// resolved once in Fn, cells read per row.
		return &FuncPred{Desc: "f + i > 0", Fn: func(r *Relation) func(int) bool {
			f, i := r.Schema().Lookup("f"), r.Schema().Lookup("i")
			if f < 0 || i < 0 {
				return func(int) bool { return false }
			}
			return func(row int) bool { return r.Float(row, f)+r.Float(row, i) > 0 }
		}}
	}
	return NewCompare(cols[rng.Intn(len(cols))], CmpOp(rng.Intn(6)), consts[rng.Intn(len(consts))])
}

// TestSelectionsMatchRowOracle: for random predicate trees, the batch
// selection (fresh, in place, and over a shuffled list with repeats), the
// count and the single-row test all say what the row-at-a-time oracle
// says — on a head relation with tombstones, on its snapshot, and on a
// relation that lacks most of the columns (the representative relation's
// case: a predicate on a column it does not have selects nothing).
func TestSelectionsMatchRowOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	head := mixedRelation(rng, 300)
	narrow := New("reps", mustSchema(Column{"gid", Int}, Column{"f", Float}))
	for k := 0; k < 40; k++ {
		narrow.mustAppend(I(int64(k)), F(float64(k%5)-1))
	}
	for trial := 0; trial < 400; trial++ {
		pred := randomPredicate(rng, 3)
		for _, r := range []*Relation{head, head.Snapshot(), narrow} {
			var want []int
			for _, row := range r.AllRows() {
				if evalRow(pred, r, row) {
					want = append(want, row)
				}
			}
			if got := r.Select(pred); !slices.Equal(got, want) {
				t.Fatalf("%s on %s: Select = %v, oracle %v", pred, r.Name(), got, want)
			}
			if got := r.Count(pred); got != len(want) {
				t.Fatalf("%s on %s: Count = %d, oracle %d", pred, r.Name(), got, len(want))
			}
			sel := pred.Bind(r)
			if got := sel(r.AllRows(), nil); !slices.Equal(got, want) {
				t.Fatalf("%s on %s: selection into a fresh slice = %v, oracle %v", pred, r.Name(), got, want)
			}
			// Any order, with repeats, reusing one buffer across calls.
			rows := slices.Clone(r.AllRows())
			rows = append(rows, rows[:len(rows)/3]...)
			rng.Shuffle(len(rows), func(a, b int) { rows[a], rows[b] = rows[b], rows[a] })
			want = want[:0]
			for _, row := range rows {
				if evalRow(pred, r, row) {
					want = append(want, row)
				}
			}
			buf := make([]int, 0, 8)
			if buf = sel(rows, buf); !slices.Equal(buf, want) {
				t.Fatalf("%s on %s: selection over a shuffled list = %v, oracle %v", pred, r.Name(), buf, want)
			}
			for _, row := range rows[:20] {
				one := []int{row}
				if got := len(sel(one, one)) == 1; got != evalRow(pred, r, row) {
					t.Fatalf("%s on %s: row %d alone passes = %v, oracle disagrees", pred, r.Name(), row, got)
				}
			}
		}
	}
}

// TestCountBlocks: Count feeds the selection fixed-size blocks; the count
// is right on both sides of a block boundary and with every row deleted.
func TestCountBlocks(t *testing.T) {
	pred := NewCompare("v", LT, F(0.5))
	for _, n := range []int{0, 1, 1023, 1024, 1025, 3000} {
		r := New("t", mustSchema(Column{"v", Float}))
		want := 0
		for k := 0; k < n; k++ {
			v := float64(k%10) / 10
			r.mustAppend(F(v))
			if k%7 == 0 {
				if err := r.Delete(k); err != nil {
					t.Fatal(err)
				}
			} else if v < 0.5 {
				want++
			}
		}
		if got := r.Count(pred); got != want {
			t.Errorf("%d rows: Count = %d, want %d", n, got, want)
		}
		for k := 0; k < n; k++ {
			if !r.Deleted(k) {
				_ = r.Delete(k)
			}
		}
		if got := r.Count(pred); got != 0 {
			t.Errorf("%d rows, all deleted: Count = %d", n, got)
		}
	}
}
