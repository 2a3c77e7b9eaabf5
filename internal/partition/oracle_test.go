package partition

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

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
// and relation.Radius gathered over its members, in bits.
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
}

// TestBuildGroupsMatchGatherOracle holds every group Build and a
// Maintainer split make to the plain gather over its members: its
// centroid is relation.Centroid's and its radius relation.Radius's, bit
// for bit, on NaN, all-NaN, ±Inf, large Int and duplicate cells, with
// and without ω, on 1, 2 and 4 workers.
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
			matchGatherOracle(t, fmt.Sprintf("%s/workers=%d", tc.name, workers), p, allGIDs(p))
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
