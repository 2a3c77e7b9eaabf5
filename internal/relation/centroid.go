package relation

// Centroid computes the per-attribute mean of rows over the given numeric
// column indices. It is the representative-tuple construction of the
// paper's partitioner. Empty input returns a zero vector.
func Centroid(r *Relation, colIdx []int, rows []int) []float64 {
	out := make([]float64, len(colIdx))
	if len(rows) == 0 {
		return out
	}
	for _, i := range rows {
		for a, c := range colIdx {
			out[a] += r.Float(i, c)
		}
	}
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
	for _, i := range rows {
		for a, c := range colIdx {
			d := r.Float(i, c) - centroid[a]
			if d < 0 {
				d = -d
			}
			if d > radius {
				radius = d
			}
		}
	}
	return radius
}
