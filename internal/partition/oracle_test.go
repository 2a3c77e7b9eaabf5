package partition

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/par"
	"repro/internal/relation"
	"repro/internal/reltest"
)

// oracleRel is a relation whose columns hold what a grouped aggregate can
// get wrong: x and y are ordinary, nan has NaN cells, allnan is NaN in
// every row, inf has +Inf and −Inf cells, big is an Int column above 2^53
// (float64 rounds it), and dup takes four values, so duplicate points come
// with it. dupShare of the rows repeat one point on every column.
func oracleRel(n int, seed int64, dupShare float64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	rel := relation.New("oracle", reltest.Schema(
		relation.Column{Name: "x", Type: relation.Float},
		relation.Column{Name: "y", Type: relation.Float},
		relation.Column{Name: "nan", Type: relation.Float},
		relation.Column{Name: "allnan", Type: relation.Float},
		relation.Column{Name: "inf", Type: relation.Float},
		relation.Column{Name: "big", Type: relation.Int},
		relation.Column{Name: "dup", Type: relation.Float},
	))
	for i := 0; i < n; i++ {
		if rng.Float64() < dupShare {
			reltest.Append(rel, relation.F(1), relation.F(1), relation.F(1), relation.F(math.NaN()),
				relation.F(1), relation.I(1<<53+1), relation.F(1))
			continue
		}
		nan := rng.NormFloat64()
		if rng.Intn(20) == 0 {
			nan = math.NaN()
		}
		inf := rng.Float64() * 100
		switch rng.Intn(40) {
		case 0:
			inf = math.Inf(1)
		case 1:
			inf = math.Inf(-1)
		}
		reltest.Append(rel, relation.F(rng.NormFloat64()*10), relation.F(rng.Float64()*100),
			relation.F(nan), relation.F(math.NaN()), relation.F(inf),
			relation.I(1<<53+rng.Int63n(1<<20)), relation.F(float64(rng.Intn(4))))
	}
	return rel
}

// sameBits reports whether two floats are one bit pattern.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// matchGatherOracle checks every group in gids against relation.Centroid
// and relation.Radius gathered over its members, and its R̃ row against
// relation.Centroid on every numeric column, in bits.
func matchGatherOracle(t *testing.T, label string, p *Partitioning, gids []int) {
	t.Helper()
	for _, gid := range gids {
		g := p.Groups[gid]
		want := relation.Centroid(p.Rel, p.AttrIdx, g.Rows)
		for a := range want {
			if !sameBits(g.Centroid[a], want[a]) {
				t.Fatalf("%s: group %d centroid[%s] = %v, gathered %v", label, gid, p.Attrs[a], g.Centroid[a], want[a])
			}
		}
		if r := relation.Radius(p.Rel, p.AttrIdx, g.Rows, want); !sameBits(g.Radius, r) {
			t.Fatalf("%s: group %d radius = %v, gathered %v", label, gid, g.Radius, r)
		}
	}
	matchRepsOracle(t, label, p, gids)
}

// matchRepsOracle checks the R̃ row of every group in gids against
// relation.Centroid over its members on every numeric column, in bits.
func matchRepsOracle(t *testing.T, label string, p *Partitioning, gids []int) {
	t.Helper()
	numIdx, reps := numericCols(p.Rel), p.Representatives()
	for _, gid := range gids {
		for pos, want := range relation.Centroid(p.Rel, numIdx, p.Groups[gid].Rows) {
			if got := reps.Float(gid, repCol(pos)); !sameBits(got, want) {
				t.Fatalf("%s: group %d R̃ %s = %v, gathered %v", label, gid, reps.Schema().Col(repCol(pos)).Name, got, want)
			}
		}
	}
}

// maintainedState is the statistic a Maintainer keeps of group gid: its
// sum on every numeric column and its extremes on every attribute.
func maintainedState(m *Maintainer, gid int) (sums, lo, hi []float64) {
	st := m.p.stats[gid]
	return st.sums, st.lo, st.hi
}

// matchMaintainerOracle makes a Maintainer of head p, which must start no
// goroutine, and checks its statistic of every group against relation.Sums
// and relation.Extremes gathered over the members, in bits.
func matchMaintainerOracle(t *testing.T, label string, p *Partitioning) *Maintainer {
	t.Helper()
	before := par.Started()
	m := NewMaintainer(p, MaintOptions{})
	if par.Started() != before {
		t.Fatalf("%s: NewMaintainer started %d goroutines", label, par.Started()-before)
	}
	numIdx := numericCols(p.Rel)
	for gid, g := range p.Groups {
		sums, lo, hi := maintainedState(m, gid)
		wantLo, wantHi := relation.Extremes(p.Rel, p.AttrIdx, g.Rows)
		for _, c := range []struct {
			what      string
			got, want []float64
		}{{"sums", sums, relation.Sums(p.Rel, numIdx, g.Rows)}, {"lo", lo, wantLo}, {"hi", hi, wantHi}} {
			if !slices.EqualFunc(c.got, c.want, sameBits) {
				t.Fatalf("%s: group %d maintained %s %v, gathered %v", label, gid, c.what, c.got, c.want)
			}
		}
	}
	return m
}

// snapshotOf copies what the store serializes of p's groups.
func snapshotOf(p *Partitioning) []Group {
	groups := make([]Group, len(p.Groups))
	for gid, g := range p.Groups {
		groups[gid] = Group{Rows: slices.Clone(g.Rows), Centroid: slices.Clone(g.Centroid), Radius: g.Radius}
	}
	return groups
}

// TestBuildGroupsMatchGatherOracle holds every group Build, FromGroups
// and a Maintainer split make to the plain gather over its members: its
// centroid is relation.Centroid's, its radius relation.Radius's and its R̃
// row relation.Centroid's on every numeric column, bit for bit, on NaN,
// all-NaN, ±Inf, large Int and duplicate cells, with and without ω, on 1,
// 2 and 4 workers. FromGroups restores both a Build's groups and those of
// a head maintained through mixed batches; a Restrict-ed view is held to
// it on R̃ (its centroids are the parent's); and a fresh Maintainer of
// every head keeps each group's relation.Sums and relation.Extremes, bit
// for bit.
func TestBuildGroupsMatchGatherOracle(t *testing.T) {
	rel := oracleRel(3000, 11, 0)
	dups := oracleRel(3000, 12, 0.6)
	cases := []struct {
		name  string
		rel   *relation.Relation
		attrs []string
		omega float64
	}{
		{"nan", rel, []string{"x", "nan"}, 0},
		{"all-nan", rel, []string{"allnan", "y"}, 0},
		{"inf", rel, []string{"inf", "x"}, 0},
		{"int-big", rel, []string{"big", "y"}, 0},
		{"every-column", rel, []string{"x", "y", "nan", "allnan", "inf", "big", "dup"}, 0},
		{"dups", dups, []string{"x", "y", "dup"}, 0},
		{"dups-one-column", dups, []string{"dup"}, 0},
		{"omega", rel, []string{"x", "y"}, 8},
		{"omega-dups", dups, []string{"x", "big"}, 3},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 4} {
			p, err := Build(tc.rel, Options{Attrs: tc.attrs, SizeThreshold: 100, RadiusLimit: tc.omega, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s/workers=%d", tc.name, workers)
			matchGatherOracle(t, label, p, allGIDs(p))
			var every3rd []int
			for r := 0; r < tc.rel.Len(); r += 3 {
				every3rd = append(every3rd, r)
			}
			v := p.Restrict(every3rd)
			matchRepsOracle(t, label+"/restrict", v, allGIDs(v))
			q, err := FromGroups(tc.rel, p.Attrs, p.Tau, p.Omega, workers, snapshotOf(p))
			if err != nil {
				t.Fatal(err)
			}
			matchGatherOracle(t, label+"/from-groups", q, allGIDs(q))
			matchMaintainerOracle(t, label+"/maintainer", p)
			matchMaintainerOracle(t, label+"/from-groups/maintainer", q)
			matchGatherOracle(t, label+"/from-groups/maintainer", q, allGIDs(q))
		}
	}

	// A Maintainer split: inserts push groups past τ, and every group the
	// split leaves (its own slot and the appended ones) is checked.
	m := NewMaintainer(mustBuild(t, oracleRel(400, 13, 0.3), []string{"x", "big", "dup"}, 50), MaintOptions{})
	p := m.Partitioning()
	more := oracleRel(600, 14, 0.3)
	for r := 0; r < more.Len(); r++ {
		reltest.Append(p.Rel, more.Row(r)...)
		before, splits := make([][]int, len(p.Groups)), m.Stats().Splits
		for gid, g := range p.Groups {
			before[gid] = slices.Clone(g.Rows)
		}
		if err := m.Insert(p.Rel.Len() - 1); err != nil {
			t.Fatal(err)
		}
		if m.Stats().Splits == splits {
			continue
		}
		var split []int
		for gid, g := range p.Groups {
			if gid >= len(before) || !slices.Equal(before[gid], g.Rows) {
				split = append(split, gid)
			}
		}
		matchGatherOracle(t, fmt.Sprintf("maintainer insert %d", r), p, split)
	}
	if m.Stats().Splits == 0 {
		t.Fatal("600 inserts at τ=50 split no group")
	}

	// A head maintained through mixed Insert, Delete and UpdateRows
	// batches, whose running sums have left relation.Sums' bits, restored
	// by FromGroups on 1 and 2 workers: the restored head and a fresh
	// Maintainer of it carry every group's gathered statistic. The
	// maintenance starts no goroutine.
	rel = oracleRel(800, 15, 0.2)
	more = oracleRel(400, 16, 0.2)
	before := par.Started()
	m = NewMaintainer(mustBuild(t, rel, []string{"x", "nan", "big"}, 60), MaintOptions{})
	p = m.Partitioning()
	rng := rand.New(rand.NewSource(17))
	for b := 0; b < 40; b++ {
		var ins []int
		for j := 0; j < 10; j++ {
			ins = append(ins, rel.Len())
			reltest.Append(rel, more.Row(rng.Intn(more.Len()))...)
		}
		if err := m.Insert(ins...); err != nil {
			t.Fatal(err)
		}
		live := rel.AllRows()
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		del, upd := live[:6], live[6:10]
		for _, r := range del {
			if err := rel.Delete(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Delete(del...); err != nil {
			t.Fatal(err)
		}
		err := UpdateRows([]*Maintainer{m}, upd, func(i int) error {
			for c, v := range more.Row(rng.Intn(more.Len())) {
				if err := rel.Set(upd[i], c, v); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if par.Started() != before {
		t.Fatalf("maintenance started %d goroutines", par.Started()-before)
	}
	if st := m.Stats(); st.Splits == 0 || st.Merges == 0 {
		t.Fatalf("the batches split %d and merged %d groups: the schedule tests little", st.Splits, st.Merges)
	}
	for _, workers := range []int{1, 2} {
		label := fmt.Sprintf("maintained/from-groups/workers=%d", workers)
		q, err := FromGroups(rel, p.Attrs, p.Tau, p.Omega, workers, snapshotOf(p))
		if err != nil {
			t.Fatal(err)
		}
		matchMaintainerOracle(t, label+"/maintainer", q)
		matchGatherOracle(t, label, q, allGIDs(q))
	}
}

// allGIDs lists every group of p.
func allGIDs(p *Partitioning) []int {
	gids := make([]int, len(p.Groups))
	for gid := range gids {
		gids[gid] = gid
	}
	return gids
}

// mustBuild is a one-worker Build at τ.
func mustBuild(t *testing.T, rel *relation.Relation, attrs []string, tau int) *Partitioning {
	t.Helper()
	p, err := Build(rel, Options{Attrs: attrs, SizeThreshold: tau, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return p
}
