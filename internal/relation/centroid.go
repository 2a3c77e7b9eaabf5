package relation

import "math"

// sumOver adds col's cells over rows, in row order.
func sumOver[T int64 | float64](col []T, rows []int) (s float64) {
	for _, i := range rows {
		s += float64(col[i])
	}
	return s
}

// cellsOver writes col's cells at rows to dst, in row order.
func cellsOver[T int64 | float64](dst []float64, col []T, rows []int) {
	for j, i := range rows {
		dst[j] = float64(col[i])
	}
}

// Cells gathers numeric column col's cells at rows into a fresh slice of
// len(rows), in row order; an Int cell converts as float64(v). Column −1
// reads a row of ones, COUNT's cells.
func (r *Relation) Cells(col int, rows []int) []float64 {
	out := make([]float64, len(rows))
	switch {
	case col < 0:
		for j := range out {
			out[j] = 1
		}
	case r.cols[col].typ == Int:
		cellsOver(out, r.cols[col].i, rows)
	default:
		cellsOver(out, r.cols[col].f, rows)
	}
	return out
}

// spreadOver is the largest |cell − centre| of col over rows.
func spreadOver[T int64 | float64](col []T, rows []int, centre float64) (far float64) {
	for _, i := range rows {
		if d := math.Abs(float64(col[i]) - centre); d > far {
			far = d
		}
	}
	return far
}

// extremesOver is the least and greatest cell of col over rows (+Inf and
// -Inf when there is none); NaN cells are stepped over.
func extremesOver[T int64 | float64](col []T, rows []int) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, i := range rows {
		v := float64(col[i])
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Sums computes the per-attribute sum of rows over the given numeric
// column indices, one typed column at a time (a TEXT column reads NaN).
func Sums(r *Relation, colIdx []int, rows []int) []float64 {
	out := make([]float64, len(colIdx))
	for a, c := range colIdx {
		switch col := r.cols[c]; col.typ {
		case Float:
			out[a] = sumOver(col.f, rows)
		case Int:
			out[a] = sumOver(col.i, rows)
		default:
			out[a] = math.NaN()
		}
	}
	return out
}

// Extremes computes the per-attribute least and greatest cell of rows over
// the given numeric column indices, one typed column at a time. Because
// fl(x − c) is monotone in x, the two bound Radius exactly: it is the
// largest |lo − c| or |hi − c| over the attributes, bit for bit.
func Extremes(r *Relation, colIdx []int, rows []int) (lo, hi []float64) {
	lo, hi = make([]float64, len(colIdx)), make([]float64, len(colIdx))
	for a, c := range colIdx {
		switch col := r.cols[c]; col.typ {
		case Float:
			lo[a], hi[a] = extremesOver(col.f, rows)
		case Int:
			lo[a], hi[a] = extremesOver(col.i, rows)
		default:
			lo[a], hi[a] = math.Inf(1), math.Inf(-1)
		}
	}
	return lo, hi
}

// GroupStats is Sums and Extremes of column col for many groups at once,
// in one ordered pass over rows: rows[j]'s cell belongs to group group[j],
// one of groups. Each group's cells are added in row order, so its sum is
// Sums's over its own rows bit for bit, and its extremes are Extremes's
// (NaN stepped over; +Inf and -Inf for a group with no cell). st holds
// group k's sum, least and greatest cell at 3k, 3k+1 and 3k+2. A lone
// group (group may then be nil) is added up in registers. A TEXT column
// sums to NaN.
func GroupStats(r *Relation, col int, rows []int, group []int32, groups int) (st []float64) {
	st = make([]float64, 3*groups)
	for k := 0; k < len(st); k += 3 {
		st[k+1], st[k+2] = math.Inf(1), math.Inf(-1)
	}
	switch c := r.cols[col]; {
	case c.typ == Float && groups == 1:
		st[0], st[1], st[2] = statsOver(c.f, rows)
	case c.typ == Float:
		addGrouped(c.f, rows, group, st)
	case c.typ == Int && groups == 1:
		st[0], st[1], st[2] = statsOver(c.i, rows)
	case c.typ == Int:
		addGrouped(c.i, rows, group, st)
	default:
		for k := 0; k < len(st); k += 3 {
			st[k] = math.NaN()
		}
	}
	return st
}

// statsOver is sumOver and extremesOver in one pass: the compares run in
// the shadow of the sum's chain of dependent adds, and cost nothing.
func statsOver[T int64 | float64](col []T, rows []int) (sum, lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, i := range rows {
		v := float64(col[i])
		sum += v
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return sum, lo, hi
}

// addGrouped adds col's cell at each of rows into its group's running sum
// and extremes in st, in row order.
func addGrouped[T int64 | float64](col []T, rows []int, group []int32, st []float64) {
	group = group[:len(rows)]
	for j, i := range rows {
		k := 3 * int(group[j])
		acc, v := st[k:k+3:k+3], float64(col[i])
		acc[0] += v
		if v < acc[1] {
			acc[1] = v
		}
		if v > acc[2] {
			acc[2] = v
		}
	}
}

// QuadrantMasks sets bit a of masks[j] when row rows[j]'s cell of column
// colIdx[a] is at or above centre[a], one typed column at a time: the
// quadrant of each row in the partitioner's split around a centroid.
func QuadrantMasks(r *Relation, colIdx []int, rows []int, centre []float64) []uint64 {
	masks := make([]uint64, len(rows))
	for a, c := range colIdx {
		if col := r.cols[c]; col.typ == Int {
			markAbove(masks, col.i, rows, centre[a], 1<<a)
		} else {
			markAbove(masks, col.f, rows, centre[a], 1<<a)
		}
	}
	return masks
}

// markAbove sets bit in masks[j] for every rows[j] whose cell of col is at
// or above centre.
func markAbove[T int64 | float64](masks []uint64, col []T, rows []int, centre float64, bit uint64) {
	for j, i := range rows {
		var set uint64 // assigned, not branched on: the side is a coin toss
		if float64(col[i]) >= centre {
			set = bit
		}
		masks[j] |= set
	}
}

// Centroid computes the per-attribute mean of rows over the given numeric
// column indices. It is the representative-tuple construction of the
// paper's partitioner. Empty input returns a zero vector.
func Centroid(r *Relation, colIdx []int, rows []int) []float64 {
	if len(rows) == 0 {
		return make([]float64, len(colIdx))
	}
	out := Sums(r, colIdx, rows)
	for a := range out {
		out[a] /= float64(len(rows))
	}
	return out
}

// Radius computes the group radius of Definition 2: the largest absolute
// coordinate distance between the centroid and any member row across the
// given numeric columns.
func Radius(r *Relation, colIdx []int, rows []int, centroid []float64) float64 {
	radius := 0.0
	for a, c := range colIdx {
		switch col := r.cols[c]; col.typ {
		case Float:
			radius = max(radius, spreadOver(col.f, rows, centroid[a]))
		case Int:
			radius = max(radius, spreadOver(col.i, rows, centroid[a]))
		}
	}
	return radius
}
