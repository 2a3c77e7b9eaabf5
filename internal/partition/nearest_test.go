package partition

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// distInfScan and nearestScan are the routing scan as it stood before the
// spread order and the early stop: every attribute of every group, in
// attribute order. They are the oracle for Maintainer.nearest.
func distInfScan(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

func nearestScan(m *Maintainer, point []float64, skip int) int {
	best, bestD := -1, math.Inf(1)
	for gid := range m.p.Groups {
		if gid == skip {
			continue
		}
		if d := distInfScan(point, m.p.Groups[gid].Centroid); d < bestD {
			best, bestD = gid, d
		}
	}
	return best
}

// TestNearestMatchesScan holds Maintainer.nearest to the plain scan on
// random points, points on and between centroids, NaN and ±Inf
// coordinates in the points and in the centroids (before and after the
// attribute order is fixed), tied centroids, and every skip.
func TestNearestMatchesScan(t *testing.T) {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rel := maintRel(1500, seed)
		// w spreads over [0, 1], x and y over tens: the order is not the
		// attributes' own.
		p, err := Build(rel, Options{Attrs: []string{"w", "x", "y"}, SizeThreshold: 20, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		groups := p.Groups
		// Ties: a few groups take another's centroid; on odd seeds every
		// centroid is snapped to a coarse grid before the order is fixed.
		for i := 0; i < 5; i++ {
			groups[rng.Intn(len(groups))].Centroid = slices.Clone(groups[rng.Intn(len(groups))].Centroid)
		}
		if seed%2 == 1 {
			for _, g := range groups {
				for a := range g.Centroid {
					g.Centroid[a] = math.Round(g.Centroid[a] / 4)
				}
			}
			groups[3].Centroid[1] = math.NaN()
			groups[4].Centroid[2] = math.Inf(-1)
		}
		m := NewMaintainer(p, MaintOptions{})
		if seed == 0 && m.order[0] == 0 {
			t.Errorf("order %v puts the narrow attribute w first", m.order)
		}

		probe := func() []float64 {
			pt := make([]float64, 3)
			switch k := rng.Intn(5); k {
			case 0, 1:
				for a := range pt {
					pt[a] = rng.NormFloat64() * 15
				}
			case 2: // on a centroid
				copy(pt, groups[rng.Intn(len(groups))].Centroid)
			case 3: // halfway between two, so equidistant on every attribute
				g, h := groups[rng.Intn(len(groups))].Centroid, groups[rng.Intn(len(groups))].Centroid
				for a := range pt {
					pt[a] = (g[a] + h[a]) / 2
				}
			default:
				for a := range pt {
					pt[a] = math.Round(rng.NormFloat64() * 4)
				}
			}
			if rng.Intn(4) == 0 {
				pt[rng.Intn(3)] = special[rng.Intn(len(special))]
			}
			return pt
		}
		check := func(stage string) {
			t.Helper()
			for i := 0; i < 400; i++ {
				pt := probe()
				want := nearestScan(m, pt, -1)
				for _, skip := range []int{-1, want, rng.Intn(len(groups)), 0} {
					if got, want := m.nearest(pt, skip), nearestScan(m, pt, skip); got != want {
						t.Fatalf("seed %d, %s: nearest(%v, skip %d) = %d, the scan %d", seed, stage, pt, skip, got, want)
					}
				}
			}
		}
		check("as built")

		// NaN and ±Inf centroids after the order is fixed.
		for i := 0; i < 8; i++ {
			groups[rng.Intn(len(groups))].Centroid[rng.Intn(3)] = special[rng.Intn(3)]
		}
		check("with special centroids")
	}
}
