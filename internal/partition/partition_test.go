package partition

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/relation"
	"repro/internal/reltest"
)

func randomRel(t testing.TB, n int, seed int64) *relation.Relation {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	r := relation.New("pts", reltest.Schema(
		relation.Column{Name: "x", Type: relation.Float},
		relation.Column{Name: "y", Type: relation.Float},
	))
	for i := 0; i < n; i++ {
		reltest.Append(r, relation.F(rng.NormFloat64()*10), relation.F(rng.Float64()*100))
	}
	return r
}

func TestBuildSizeThreshold(t *testing.T) {
	rel := randomRel(t, 1000, 1)
	p, err := Build(rel, Options{Attrs: []string{"x", "y"}, SizeThreshold: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if p.NumGroups() < 1000/50 {
		t.Errorf("only %d groups; with τ=50 and 1000 rows expected ≥ 20", p.NumGroups())
	}
	reps := p.Representatives()
	if reps.Len() != p.NumGroups() {
		t.Errorf("reps %d != groups %d", reps.Len(), p.NumGroups())
	}
	// Representative schema: gid + attrs.
	if reps.Schema().Len() != 3 {
		t.Errorf("reps schema %s, want (gid, x, y)", reps.Schema())
	}
	// The audit compares representative values, not just their count: a
	// view's stale R̃ is caught (a head holds none to go stale).
	v := p.View(rel.Snapshot())
	if err := v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	vr := v.Representatives()
	if err := vr.Set(3, 2, relation.F(vr.Float(3, 2)+1)); err != nil {
		t.Fatal(err)
	}
	if err := v.CheckInvariants(); err == nil {
		t.Error("a stale representative passed CheckInvariants")
	}
}

func TestBuildRadiusLimit(t *testing.T) {
	rel := randomRel(t, 500, 2)
	p, err := Build(rel, Options{Attrs: []string{"x", "y"}, SizeThreshold: 500, RadiusLimit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, g := range p.Groups {
		if g.Radius > 5+1e-9 {
			t.Errorf("group %d radius %g > 5", g.ID, g.Radius)
		}
	}
}

func TestBuildDuplicateTuples(t *testing.T) {
	// All-identical tuples cannot be split spatially; the chunking
	// fallback must still enforce τ.
	rel := relation.New("dup", reltest.Schema(relation.Column{Name: "v", Type: relation.Float}))
	for i := 0; i < 100; i++ {
		reltest.Append(rel, relation.F(7))
	}
	p, err := Build(rel, Options{Attrs: []string{"v"}, SizeThreshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if p.NumGroups() != 10 {
		t.Errorf("groups = %d, want 10", p.NumGroups())
	}
}

func TestBuildSingleTupleGroups(t *testing.T) {
	rel := randomRel(t, 20, 3)
	p, err := Build(rel, Options{Attrs: []string{"x"}, SizeThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if p.NumGroups() != 20 {
		t.Errorf("groups = %d, want 20 singletons", p.NumGroups())
	}
	for _, g := range p.Groups {
		if g.Radius != 0 {
			t.Errorf("singleton radius %g, want 0", g.Radius)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	rel := randomRel(t, 10, 4)
	cases := []Options{
		{Attrs: []string{"x"}, SizeThreshold: 0},       // bad tau
		{Attrs: nil, SizeThreshold: 5},                 // no attrs
		{Attrs: []string{"missing"}, SizeThreshold: 5}, // unknown attr
		{Attrs: make([]string, 31), SizeThreshold: 5},  // too many dims
	}
	for i, opt := range cases {
		if _, err := Build(rel, opt); err == nil {
			t.Errorf("case %d: bad options accepted", i)
		}
	}
	empty := relation.New("e", reltest.Schema(relation.Column{Name: "x", Type: relation.Float}))
	if _, err := Build(empty, Options{Attrs: []string{"x"}, SizeThreshold: 5}); err == nil {
		t.Error("empty relation accepted")
	}
	strRel := relation.New("s", reltest.Schema(relation.Column{Name: "s", Type: relation.String}))
	reltest.Append(strRel, relation.S("a"))
	if _, err := Build(strRel, Options{Attrs: []string{"s"}, SizeThreshold: 5}); err == nil {
		t.Error("string partitioning attribute accepted")
	}
}

func TestIntColumnsArePartitionable(t *testing.T) {
	rel := relation.New("ints", reltest.Schema(relation.Column{Name: "k", Type: relation.Int}))
	for i := 0; i < 64; i++ {
		reltest.Append(rel, relation.I(int64(i%8)))
	}
	p, err := Build(rel, Options{Attrs: []string{"k"}, SizeThreshold: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRestrict(t *testing.T) {
	rel := randomRel(t, 400, 5)
	p, err := Build(rel, Options{Attrs: []string{"x", "y"}, SizeThreshold: 40})
	if err != nil {
		t.Fatal(err)
	}
	// Keep every third row.
	var rows []int
	for i := 0; i < rel.Len(); i += 3 {
		rows = append(rows, i)
	}
	sub := p.Restrict(rows)
	if sub.GID != nil {
		t.Error("a restricted view carries a gid map")
	}
	// Every kept row appears in exactly one group — the one that held it
	// before; dropped rows in none.
	seen := make(map[int]bool)
	for gid, g := range sub.Groups {
		if len(g.Rows) == 0 {
			t.Error("restricted partitioning has an empty group")
		}
		if len(g.Rows) > p.Tau {
			t.Error("restriction violated the size condition")
		}
		if g.ID != gid {
			t.Errorf("group %d numbered %d after restrict", gid, g.ID)
		}
		from := p.GID[g.Rows[0]]
		for _, r := range g.Rows {
			if seen[r] || p.GID[r] != from {
				t.Errorf("row %d: repeated, or regrouped by restrict", r)
			}
			seen[r] = true
		}
	}
	if len(seen) != len(rows) {
		t.Errorf("restricted groups cover %d rows, want %d", len(seen), len(rows))
	}
	for i := 1; i < rel.Len(); i += 3 {
		if seen[i] {
			t.Errorf("dropped row %d still present", i)
		}
	}
	if sub.Representatives().Len() != len(sub.Groups) {
		t.Error("restricted reps out of sync")
	}
	// The other view, View, costs O(groups): at 10⁵ rows a gid map alone
	// would be 800 kB.
	big := randomRel(t, 100_000, 6)
	bp, err := Build(big, Options{Attrs: []string{"x", "y"}, SizeThreshold: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	snap := big.Snapshot()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	v := bp.View(snap)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; v.GID != nil || got > 64<<10 {
		t.Errorf("View of %d groups over 10⁵ rows allocated %d bytes (gid map nil: %v)", v.NumGroups(), got, v.GID == nil)
	}
	if err := v.CheckInvariants(); err != nil {
		t.Errorf("view fails the audit a head passes: %v", err)
	}
}

// TestViewSerials: every View call is a new identity — also a second view
// of one head at one version — and neither a head nor a Restrict-ed view
// (which copies a view's struct) carries one.
func TestViewSerials(t *testing.T) {
	rel := randomRel(t, 200, 6)
	p, err := Build(rel, Options{Attrs: []string{"x", "y"}, SizeThreshold: 40})
	if err != nil {
		t.Fatal(err)
	}
	snap := rel.Snapshot()
	a, b := p.View(snap), p.View(snap)
	if p.Serial() != 0 || a.Serial() == 0 || b.Serial() == 0 || a.Serial() == b.Serial() {
		t.Errorf("serials: head %d, views %d and %d", p.Serial(), a.Serial(), b.Serial())
	}
	if r := a.Restrict([]int{0, 1, 2}); r.Serial() != 0 {
		t.Errorf("a restricted view inherited serial %d", r.Serial())
	}
}

func TestRadiusForEpsilon(t *testing.T) {
	rel := relation.New("t", reltest.Schema(relation.Column{Name: "a", Type: relation.Float}))
	for _, v := range []float64{2, 4, 8, -3} {
		reltest.Append(rel, relation.F(v))
	}
	// maximize: γ = ε; min |a| = 2 → ω = 0.5·2 = 1.
	w, err := RadiusForEpsilon(rel, []string{"a"}, 0.5, true)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w-1) > 1e-12 {
		t.Errorf("ω = %g, want 1", w)
	}
	// minimize: γ = ε/(1+ε) = 1/3 → ω = 2/3.
	w, err = RadiusForEpsilon(rel, []string{"a"}, 0.5, false)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w-2.0/3) > 1e-12 {
		t.Errorf("ω = %g, want 2/3", w)
	}
	if _, err := RadiusForEpsilon(rel, []string{"a"}, -1, true); err == nil {
		t.Error("negative ε accepted")
	}
	if _, err := RadiusForEpsilon(rel, []string{"zz"}, 0.1, true); err == nil {
		t.Error("unknown attribute accepted")
	}
	zero := relation.New("z", reltest.Schema(relation.Column{Name: "a", Type: relation.Float}))
	reltest.Append(zero, relation.F(0))
	w, err = RadiusForEpsilon(zero, []string{"a"}, 0.5, true)
	if err != nil || w != 0 {
		t.Errorf("all-zero column: ω = %g err %v, want 0 nil", w, err)
	}
	// A tombstoned row no longer tightens ω: with the row holding the
	// minimum deleted, ω is that of a compacted copy (min |a| = 3).
	if err := rel.Delete(0); err != nil {
		t.Fatal(err)
	}
	w, err = RadiusForEpsilon(rel, []string{"a"}, 0.5, true)
	want, _ := RadiusForEpsilon(rel.Subset("compacted", rel.AllRows()), []string{"a"}, 0.5, true)
	if err != nil || w != want || w != 1.5 {
		t.Errorf("after deleting the minimum: ω = %g err %v, want %g (1.5) as compacted", w, err, want)
	}
}

// TestRadiusForEpsilonRejectsNaN: a NaN ε fails like a negative one
// instead of returning ω = NaN, which Build would take as a radius limit.
func TestRadiusForEpsilonRejectsNaN(t *testing.T) {
	rel := relation.New("t", reltest.Schema(relation.Column{Name: "a", Type: relation.Float}))
	reltest.Append(rel, relation.F(2))
	if w, err := RadiusForEpsilon(rel, []string{"a"}, math.NaN(), true); err == nil {
		t.Errorf("NaN ε accepted: ω = %g", w)
	}
}

func TestBuildTimeRecorded(t *testing.T) {
	rel := randomRel(t, 2000, 6)
	p, err := Build(rel, Options{Attrs: []string{"x", "y"}, SizeThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	if p.BuildTime <= 0 {
		t.Error("BuildTime not recorded")
	}
}

func TestHighDimensionalPartitioning(t *testing.T) {
	// 8 attributes: sub-quadrant masks up to 2^8; the sparse map must
	// handle it without materializing empty quadrants.
	rng := rand.New(rand.NewSource(9))
	cols := make([]relation.Column, 8)
	attrs := make([]string, 8)
	for i := range cols {
		attrs[i] = string(rune('a' + i))
		cols[i] = relation.Column{Name: attrs[i], Type: relation.Float}
	}
	rel := relation.New("hd", reltest.Schema(cols...))
	for i := 0; i < 3000; i++ {
		vals := make([]relation.Value, 8)
		for j := range vals {
			vals[j] = relation.F(rng.NormFloat64())
		}
		reltest.Append(rel, vals...)
	}
	p, err := Build(rel, Options{Attrs: attrs, SizeThreshold: 200})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Property: partitioning invariants hold for random data, τ, and ω.
func TestQuickPartitioningInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		rel := relation.New("t", reltest.Schema(
			relation.Column{Name: "x", Type: relation.Float},
			relation.Column{Name: "y", Type: relation.Float},
		))
		for i := 0; i < n; i++ {
			// Mix of clustered and uniform data, sometimes degenerate.
			switch rng.Intn(3) {
			case 0:
				reltest.Append(rel, relation.F(rng.NormFloat64()), relation.F(rng.NormFloat64()))
			case 1:
				reltest.Append(rel, relation.F(5), relation.F(5))
			default:
				reltest.Append(rel, relation.F(rng.Float64()*1000), relation.F(0))
			}
		}
		tau := 1 + rng.Intn(50)
		var omega float64
		if rng.Intn(2) == 0 {
			omega = rng.Float64() * 100
		}
		p, err := Build(rel, Options{Attrs: []string{"x", "y"}, SizeThreshold: tau, RadiusLimit: omega})
		if err != nil {
			return false
		}
		return p.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: with a radius limit derived from ε, every tuple is within
// (1±ε) of its representative on every partitioning attribute (Equation 3
// of the appendix), for strictly positive data.
func TestQuickEpsilonRadiusBoundsTuples(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(100)
		rel := relation.New("t", reltest.Schema(relation.Column{Name: "v", Type: relation.Float}))
		for i := 0; i < n; i++ {
			reltest.Append(rel, relation.F(1+rng.Float64()*9)) // values in [1, 10]
		}
		eps := 0.1 + rng.Float64()*0.9
		omega, err := RadiusForEpsilon(rel, []string{"v"}, eps, true)
		if err != nil || omega <= 0 {
			return false
		}
		p, err := Build(rel, Options{Attrs: []string{"v"}, SizeThreshold: n, RadiusLimit: omega})
		if err != nil || p.CheckInvariants() != nil {
			return false
		}
		for _, g := range p.Groups {
			for _, r := range g.Rows {
				v := rel.Float(r, 0)
				rep := g.Centroid[0]
				// |v − rep| ≤ ω ≤ ε·min|t.v| ≤ ε·v and ≤ ε·rep-ish;
				// check the direct radius consequence.
				if math.Abs(v-rep) > omega+1e-9 {
					return false
				}
				if v < (1-eps)*rep-1e-9 { // t ≥ (1−ε)·rep
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
