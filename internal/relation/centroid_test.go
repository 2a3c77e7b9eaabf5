package relation

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// centroidFixture is a table of one BIGINT and ten DOUBLE columns, with a
// scattered, ascending tenth of its rows — the shape of one group.
func centroidFixture(n int) (r *Relation, cols, rows []int) {
	rng := rand.New(rand.NewSource(5))
	schema := []Column{{Name: "id", Type: Int}}
	for c := 0; c < 10; c++ {
		schema = append(schema, Column{Name: string(rune('a' + c)), Type: Float})
	}
	r = New("t", mustSchema(schema...))
	vals := make([]Value, len(schema))
	for i := 0; i < n; i++ {
		vals[0] = I(rng.Int63n(1000) - 500)
		for c := 1; c < len(vals); c++ {
			vals[c] = F(rng.NormFloat64() * float64(c))
		}
		r.mustAppend(vals...)
		if rng.Intn(10) == 0 {
			rows = append(rows, i)
		}
	}
	for c := range schema {
		cols = append(cols, c)
	}
	return r, cols, rows
}

// Sums, Centroid, Radius and Extremes run a column at a time; the
// row-at-a-time walk through Float they replaced is the oracle, and because
// each column is still summed in row order the results are bit-identical.
// The radius read off the extremes is Radius's, bit for bit.
func TestCentroidRadiusMatchRowOracle(t *testing.T) {
	r, cols, rows := centroidFixture(3000)
	for _, rows := range [][]int{rows, rows[:1], nil} {
		sums, radius := make([]float64, len(cols)), 0.0
		lo, hi := make([]float64, len(cols)), make([]float64, len(cols))
		for a := range cols {
			lo[a], hi[a] = math.Inf(1), math.Inf(-1)
		}
		for _, i := range rows {
			for a, c := range cols {
				sums[a] += r.Float(i, c)
				lo[a], hi[a] = min(lo[a], r.Float(i, c)), max(hi[a], r.Float(i, c))
			}
		}
		got, centroid := Sums(r, cols, rows), Centroid(r, cols, rows)
		for _, i := range rows {
			for a, c := range cols {
				radius = max(radius, math.Abs(r.Float(i, c)-centroid[a]))
			}
		}
		for a := range cols {
			want := 0.0
			if len(rows) > 0 {
				want = sums[a] / float64(len(rows))
			}
			if got[a] != sums[a] || centroid[a] != want {
				t.Fatalf("%d rows, column %d: sum %v mean %v, row oracle %v and %v", len(rows), a, got[a], centroid[a], sums[a], want)
			}
		}
		if got := Radius(r, cols, rows, centroid); got != radius {
			t.Fatalf("%d rows: radius %v, row oracle %v", len(rows), got, radius)
		}
		gotLo, gotHi := Extremes(r, cols, rows)
		fromExtremes := 0.0
		for a := range cols {
			if gotLo[a] != lo[a] || gotHi[a] != hi[a] {
				t.Fatalf("%d rows, column %d: extremes [%v, %v], row oracle [%v, %v]", len(rows), a, gotLo[a], gotHi[a], lo[a], hi[a])
			}
			if len(rows) > 0 {
				fromExtremes = max(fromExtremes, math.Abs(lo[a]-centroid[a]), math.Abs(hi[a]-centroid[a]))
			}
		}
		if fromExtremes != radius {
			t.Fatalf("%d rows: radius from the extremes %v, row oracle %v", len(rows), fromExtremes, radius)
		}
	}
}

// GroupStats over rows dealt at random among k groups gives every group
// Sums's sum and Extremes's extremes over its own rows, bit for bit: one
// group with a nil group list, an empty group beside k > 1, and NaN,
// infinite and above-2^53 cells included.
func TestGroupStatsMatchSumsExtremes(t *testing.T) {
	r, cols, _ := centroidFixture(3000)
	r.mustAppend(I(1<<53+1), F(math.NaN()), F(math.Inf(1)), F(math.Inf(-1)), F(1), F(2), F(3), F(4), F(5), F(6), F(7))
	rows := r.AllRows()
	rng := rand.New(rand.NewSource(9))
	for _, k := range []int{1, 2, 7, 300} {
		group, members := make([]int32, len(rows)), make([][]int, k+1) // group k stays empty
		for j, row := range rows {
			group[j] = int32(rng.Intn(k))
			members[group[j]] = append(members[group[j]], row)
		}
		if k == 1 {
			group, members = nil, members[:1]
		}
		for _, c := range cols {
			st := GroupStats(r, c, rows, group, len(members))
			for g, list := range members {
				sum, lo, hi := Sums(r, []int{c}, list)[0], math.Inf(1), math.Inf(-1)
				if len(list) > 0 {
					l, h := Extremes(r, []int{c}, list)
					lo, hi = l[0], h[0]
				}
				if math.Float64bits(st[3*g]) != math.Float64bits(sum) || st[3*g+1] != lo || st[3*g+2] != hi {
					t.Fatalf("k=%d column %d group %d: sum %v [%v, %v], gathered %v [%v, %v]",
						k, c, g, st[3*g], st[3*g+1], st[3*g+2], sum, lo, hi)
				}
			}
		}
	}
}

// BenchmarkCentroidRadius is the gather under partition.Build and every
// whole-group recomputation of a maintainer: one 20 000-row group of a 200 000-row table.
func BenchmarkCentroidRadius(b *testing.B) {
	r, cols, rows := centroidFixture(200_000)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += Radius(r, cols, rows, Centroid(r, cols, rows))
	}
	_ = sink
}

// BenchmarkGather is the gather under every ILP build (core.gather reads a
// FloatColumn) over a 200 000-row column: every row (dense), a sorted 5 %
// of them (sparse), and 1 000 sorted 200-row groups drawn at random, the
// shape of a partitioning's member lists (groups). Each runs over the
// contiguous column and over the same cells held in 256-row pages behind a
// page table, the layout a page-granular copy-on-write would read through:
// the "paged" rows price its extra load per row.
func BenchmarkGather(b *testing.B) {
	const pageShift, pageRows = 8, 1 << 8
	r, _, _ := centroidFixture(200_000)
	col := r.FloatColumn(1)
	var pages [][]float64
	for lo := 0; lo < len(col); lo += pageRows {
		pages = append(pages, slices.Clone(col[lo:min(lo+pageRows, len(col))]))
	}
	rng := rand.New(rand.NewSource(9))
	dense := r.AllRows()
	var sparse []int
	for _, i := range dense {
		if rng.Intn(20) == 0 {
			sparse = append(sparse, i)
		}
	}
	perm := rng.Perm(len(dense))
	groups := make([][]int, 1000)
	for g := range groups {
		groups[g] = slices.Clone(perm[g*200 : (g+1)*200])
		slices.Sort(groups[g])
	}
	dst := make([]float64, len(dense))
	contiguous := func(rows []int) {
		for j, i := range rows {
			dst[j] = col[i]
		}
	}
	paged := func(rows []int) {
		for j, i := range rows {
			dst[j] = pages[i>>pageShift][i&(pageRows-1)]
		}
	}
	for _, layout := range []struct {
		name   string
		gather func([]int)
	}{{"contiguous", contiguous}, {"paged", paged}} {
		for _, bc := range []struct {
			name string
			sets [][]int
		}{{"dense", [][]int{dense}}, {"sparse", [][]int{sparse}}, {"groups", groups}} {
			b.Run(bc.name+"/"+layout.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, rows := range bc.sets {
						layout.gather(rows)
					}
				}
			})
		}
	}
}
