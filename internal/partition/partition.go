// Package partition implements the paper's offline data partitioning
// (Section 4.1): a k-dimensional quad-tree split of the input relation
// into groups of similar tuples, each bounded by a size threshold τ
// (Definition 1) and optionally a radius limit ω (Definition 2), plus the
// representative relation R̃(gid, attr₁, …, attr_k) whose tuples are the
// group centroids.
//
// The recursion mirrors the paper's SQL formulation: each round groups
// tuples by gid, computes sizes, centroids, and radii with aggregate
// queries over the substrate, and splits every violating group into
// sub-quadrants around its centroid. Here the aggregate is one ordered
// pass per attribute column over a split group's rows, which adds each
// row's cell into its child's running sum and extremes
// (relation.GroupStats): every child leaves the split with its centroid
// and the least and greatest cell of each attribute, so a child within τ
// reads its radius off them and a child above τ splits around the
// centroid it has; one more pass adds up the other numeric columns. No
// group's rows are gathered again. A head keeps the result, one statistic
// per group (groupStat), off which its centroids and radii are read, and
// R̃ is built whenever a view is taken (newReps); FromGroups makes it in one
// pass per column, and a Maintainer adopts it and is its only editor.
//
// Build runs on Options.Workers goroutines through par.For. A split cuts
// its rows into one contiguous run per worker, which computes and numbers
// its rows' quadrants and then moves them into the children; the column
// passes go one column to a worker; and a split's children are built on
// the workers, which each child's own split shares out again. Every
// result lands in a per-run, per-column or per-child slot, runs are joined
// in row order and every column is added up in row order, so the
// partitioning is bit-identical for every worker count; one worker, like
// all Maintainer work, starts no goroutine.
package partition

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/par"
	"repro/internal/relation"
)

// Options configures Build.
type Options struct {
	// Attrs are the numeric partitioning attributes A.
	Attrs []string
	// SizeThreshold is τ: the maximum number of tuples per group.
	SizeThreshold int
	// RadiusLimit is ω: the maximum group radius across partitioning
	// attributes. Zero or negative disables the radius condition (the
	// configuration the paper uses for all scalability experiments).
	RadiusLimit float64
	// Workers bounds the goroutines of the build: par.For splits a group's
	// rows in one contiguous run per worker, adds up its columns one per
	// worker, and builds a split's children on up to this many. 0 means
	// runtime.GOMAXPROCS(0); 1 builds on the calling goroutine. The
	// resulting partitioning — group IDs, member order, centroids, radii,
	// R̃ — is identical for every setting: children are kept in a
	// canonical quadrant order, runs are joined in row order and results
	// are stitched back positionally, so parallelism changes only the wall
	// clock.
	Workers int
}

// maxDepth bounds the quad-tree recursion, a safety stop for
// pathological data.
const maxDepth = 64

// Group is one partition: its member rows, centroid (the representative
// tuple), and radius.
type Group struct {
	ID       int
	Rows     []int
	Centroid []float64
	Radius   float64
}

// Partitioning is the result of offline partitioning, in one of two kinds
// (stated here once):
//
//   - A view (View, Restrict) is what a solve reads and nothing more:
//     Groups and the R̃ built with it over a pinned Rel. GID is nil and any
//     number of goroutines may read it. Nothing writes it but a View's
//     write-once parts (viewParts): its group columns (GroupColumn), its
//     member layout (Members) and R̃'s row of ones (RepresentativeOnes),
//     each written once, when first read.
//   - A head (Build, FromGroups) is bound to the mutable relation and
//     carries GID and each group's statistic instead of an R̃, which
//     Representatives builds from the statistics on each call. Its
//     Maintainer is the only code that writes it or reads either — but for
//     Remap, which renumbers rows after a compaction whether or not a
//     maintainer exists yet. Solves never read a head.
type Partitioning struct {
	Rel   *relation.Relation
	Attrs []string
	// AttrIdx are the column indices of Attrs in Rel.
	AttrIdx []int
	// GID maps each row of Rel to its group index, -1 for a row in no
	// group (tombstoned). Head partitionings only; nil on a view.
	GID []int
	// stats holds each group's statistic, indexed by gid. Head
	// partitionings only; nil on a view.
	stats []groupStat
	// numIdx are Rel's numeric columns in schema order (R̃'s attribute
	// order). cols lists their positions, the attributes' first: attrPos,
	// attribute a's at attrPos[a], then the others'.
	numIdx, cols, attrPos []int
	// Groups holds the final groups, indexed by gid.
	Groups []Group
	// reps is a view's representative relation (see Representatives);
	// nil on a head.
	reps *relation.Relation
	// Tau and Omega record the thresholds the partitioning was built
	// with (Omega ≤ 0 when no radius condition was enforced).
	Tau   int
	Omega float64
	// Workers records the concurrency bound the partitioning was built
	// with; operations that derive new partitionings (Restrict) reuse
	// it, so Workers=1 stays goroutine-free end to end.
	Workers int
	// BuildTime is the offline partitioning cost (Figure 4).
	BuildTime time.Duration
	// serial is a view's identity (see Serial); 0 on heads and on
	// Restrict's derived views.
	serial uint64
	// parts holds a View's write-once parts; nil wherever serial is 0.
	parts *viewParts
}

// viewParts is what a View derives from its groups once, on first use, and
// then only reads: its group columns (GroupColumn), its member layout
// (Members) and R̃'s row of ones (RepresentativeOnes). Each part starts
// empty, is written once, is never written again and is dropped with the
// view, so a view nobody reads costs one struct of empty parts.
type viewParts struct {
	cells      groupCells
	layoutOnce sync.Once
	layout     memberLayout
	onesOnce   sync.Once
	ones       []float64
}

// memberLayout is every group's member list by gid (rows[gid] is
// Groups[gid].Rows itself), the gids of the groups that have members,
// ascending, and the members' total.
type memberLayout struct {
	rows [][]int
	gids []int
	n    int
}

// layMembers lays groups out as a memberLayout, sharing their lists.
func layMembers(groups []Group) memberLayout {
	l := memberLayout{rows: make([][]int, len(groups)), gids: make([]int, 0, len(groups))}
	for gid, g := range groups {
		if len(g.Rows) == 0 {
			continue
		}
		l.rows[gid], l.gids, l.n = g.Rows, append(l.gids, gid), l.n+len(g.Rows)
	}
	return l
}

// groupCells is a view's contiguous copy of the group columns its solves
// have read: groups[gid] is group gid's row of slots, nil until the group
// is first read, and its slot col+1 holds the group's cells of column col
// (−1: its ones), nil until GroupColumn first fills it. The table of
// groups is allocated on the first read and a group's row on the group's
// first read, so a view nobody refines costs one empty struct, and one
// refined in a few groups a pointer per group and a row per group read.
type groupCells struct {
	once   sync.Once
	groups []atomic.Pointer[cellSlots]
}

// cellSlots is one group's row of slots, one per column and one for ones.
type cellSlots []atomic.Pointer[[]float64]

// viewSerials numbers every View taken in the process.
var viewSerials atomic.Uint64

// resolveAttrs is the one place partitioning attributes are looked up and
// held to the package's rules: 1–30 distinct numeric columns (the quadrant
// mask is a word; two spellings of one column are a duplicate) of a
// relation with no "gid" column of its own, which R̃ prepends.
func resolveAttrs(rel *relation.Relation, attrs []string) ([]int, error) {
	schema := rel.Schema()
	switch {
	case len(attrs) == 0:
		return nil, fmt.Errorf("partition: no partitioning attributes")
	case len(attrs) > 30:
		return nil, fmt.Errorf("partition: %d partitioning attributes exceed the 30-dimension limit", len(attrs))
	case schema.Lookup("gid") >= 0:
		return nil, fmt.Errorf("partition: input relation already has a %q column", "gid")
	}
	idx := make([]int, 0, len(attrs))
	for _, a := range attrs {
		c, err := schema.MustLookup(a)
		if err != nil {
			return nil, err
		}
		if !schema.Col(c).Type.Numeric() {
			return nil, fmt.Errorf("partition: attribute %q is not numeric", a)
		}
		if slices.Contains(idx, c) {
			return nil, fmt.Errorf("partition: duplicate attribute %q", a)
		}
		idx = append(idx, c)
	}
	return idx, nil
}

// newHead is the one constructor of head partitionings: it validates the
// parameters and lays the statistic out for the resolved attributes.
func newHead(rel *relation.Relation, attrs []string, tau int, omega float64, workers int) (*Partitioning, error) {
	if tau < 1 {
		return nil, fmt.Errorf("partition: size threshold τ must be ≥ 1, got %d", tau)
	}
	attrIdx, err := resolveAttrs(rel, attrs)
	if err != nil {
		return nil, err
	}
	p := &Partitioning{
		Rel:     rel,
		Attrs:   slices.Clone(attrs),
		AttrIdx: attrIdx,
		numIdx:  numericCols(rel),
		Tau:     tau,
		Omega:   omega,
		Workers: workers,
	}
	for _, c := range slices.Concat(attrIdx, p.numIdx) {
		if pos := slices.Index(p.numIdx, c); !slices.Contains(p.cols, pos) {
			p.cols = append(p.cols, pos)
		}
	}
	p.attrPos = p.cols[:len(attrIdx):len(attrIdx)]
	return p, nil
}

// Build partitions the relation with the recursive quad-tree method.
func Build(rel *relation.Relation, opt Options) (*Partitioning, error) {
	start := time.Now()
	if rel.Live() == 0 {
		return nil, fmt.Errorf("partition: empty relation")
	}
	p, err := newHead(rel, opt.Attrs, opt.SizeThreshold, opt.RadiusLimit, opt.Workers)
	if err != nil {
		return nil, err
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rows := rel.AllRows()
	groups, stats := p.groups(rows, opt.SizeThreshold, opt.RadiusLimit, workers)
	if err := p.assemble(groups, stats, p.cols[len(p.attrPos):], rows); err != nil {
		return nil, err
	}
	p.BuildTime = time.Since(start)
	return p, nil
}

// FromGroups reconstructs a partitioning from a serialized group set —
// the warm-start path of the durability subsystem: the member rows come
// from a snapshot, and the gid map and each group's statistic (and from it
// its centroid and radius) are rebuilt from them without any quad-tree
// recursion. The parameters are held to Build's rules and the groups must
// cover exactly the relation's live rows, each once; the caller can run
// CheckInvariants for the full audit.
func FromGroups(rel *relation.Relation, attrs []string, tau int, omega float64, workers int, groups []Group) (*Partitioning, error) {
	p, err := newHead(rel, attrs, tau, omega, workers)
	if err == nil {
		err = p.assemble(groups, p.newStats(len(groups)), p.cols, rel.AllRows())
	}
	if err != nil {
		return nil, err
	}
	for gid, st := range p.stats {
		groups[gid].Centroid, groups[gid].Radius = p.centre(st, len(groups[gid].Rows))
	}
	return p, nil
}

// assemble is the tail of every constructor: it numbers the groups and
// completes their statistics on the numeric columns at positions pos. A
// head (live: its relation's live rows) maps its rows first, then adds the
// columns up in one pass over the live rows with the gid map as index, and
// keeps the statistics; a view (nil live) has no gid map and cannot fail,
// adds them up over its member lists, and keeps the R̃ built from them.
func (p *Partitioning) assemble(groups []Group, stats []groupStat, pos, live []int) (err error) {
	p.Groups = groups
	for gid := range groups {
		groups[gid].ID = gid
	}
	if live == nil {
		p.fill(stats, groups, pos, p.Workers)
		p.reps = newReps(p.Rel, p.numIdx, groups, stats)
		return nil
	}
	if p.GID, err = gidMap(p.Rel, groups); err != nil {
		return err
	}
	if len(pos) > 0 {
		idx := make([]int32, len(live))
		for j, r := range live {
			idx[j] = int32(p.GID[r])
		}
		p.addStats(stats, pos, live, idx, p.Workers)
	}
	p.stats = stats
	return nil
}

// unassigned extends a gid map to n rows, the new ones in no group.
func unassigned(gid []int, n int) []int {
	for len(gid) < n {
		gid = append(gid, -1)
	}
	return gid
}

// gidMap inverts member lists into the row → gid map over rel. The lists
// must be non-empty and name exactly the live rows of rel, each once.
func gidMap(rel *relation.Relation, groups []Group) ([]int, error) {
	n := rel.Len()
	gids := unassigned(make([]int, 0, n), n)
	covered := 0
	for gid, g := range groups {
		if len(g.Rows) == 0 {
			return nil, fmt.Errorf("partition: group %d is empty", gid)
		}
		for _, r := range g.Rows {
			if r < 0 || r >= n || rel.Deleted(r) {
				return nil, fmt.Errorf("partition: group %d names invalid row %d", gid, r)
			}
			if gids[r] != -1 {
				return nil, fmt.Errorf("partition: row %d is in groups %d and %d", r, gids[r], gid)
			}
			gids[r] = gid
		}
		covered += len(g.Rows)
	}
	if covered != rel.Live() {
		return nil, fmt.Errorf("partition: groups cover %d of %d live rows", covered, rel.Live())
	}
	return gids, nil
}

// groupStat is one group's statistic: its sum on every numeric column
// (numIdx order) and its least and greatest cell on every partitioning
// attribute (AttrIdx order). Its centroid and radius (centre) and its R̃
// row (newReps) are read off it and the group's size.
type groupStat struct {
	sums, lo, hi []float64
}

// newStats allocates k statistics for p's columns in one block.
func (p *Partitioning) newStats(k int) []groupStat {
	n, d := len(p.numIdx), len(p.attrPos)
	block, out := make([]float64, k*(n+2*d)), make([]groupStat, k)
	for i := range out {
		s := block[i*(n+2*d) : (i+1)*(n+2*d)]
		out[i] = groupStat{s[:n:n], s[n : n+d : n+d], s[n+d:]}
	}
	return out
}

// addStats sets stats on the numeric columns at positions pos of numIdx —
// the sum, and on an attribute the extremes — from one ordered
// relation.GroupStats pass per column over rows, where rows[j] is a member
// of group idx[j] (idx may be nil for a lone group), the columns shared
// among the workers. Each group's cells are added in the order rows lists
// them, so its sum is relation.Sums's over that list bit for bit.
func (p *Partitioning) addStats(stats []groupStat, pos, rows []int, idx []int32, workers int) {
	byCol := make([][]float64, len(pos))
	par.For(len(pos), workers, func(i int) { byCol[i] = relation.GroupStats(p.Rel, p.numIdx[pos[i]], rows, idx, len(stats)) })
	for k, s := range stats {
		for i, at := range pos {
			s.sums[at] = byCol[i][3*k]
			if a := slices.Index(p.attrPos, at); a >= 0 {
				s.lo[a], s.hi[a] = byCol[i][3*k+1], byCol[i][3*k+2]
			}
		}
	}
}

// fill is addStats over the members of groups, listed group after group.
func (p *Partitioning) fill(stats []groupStat, groups []Group, pos []int, workers int) {
	var rows []int
	var idx []int32
	for k, g := range groups {
		rows = append(rows, g.Rows...)
		for range g.Rows {
			idx = append(idx, int32(k))
		}
	}
	p.addStats(stats, pos, rows, idx, workers)
}

// centre reads the centroid and radius of count members off st.
func (p *Partitioning) centre(st groupStat, count int) ([]float64, float64) {
	c := make([]float64, len(p.attrPos))
	for a, pos := range p.attrPos {
		c[a] = st.sums[pos] / float64(count)
	}
	return c, extremesRadius(st.lo, st.hi, c)
}

// widen takes cell v on partitioning attribute a into the extremes (a NaN
// is stepped over, as relation.GroupStats does).
func (st groupStat) widen(a int, v float64) {
	if v < st.lo[a] {
		st.lo[a] = v
	}
	if v > st.hi[a] {
		st.hi[a] = v
	}
}

// groups partitions rows into groups satisfying τ (and ω when positive),
// in canonical depth-first quadrant order, each with its statistic on the
// partitioning attributes (the caller adds up the other columns and reads
// the centroids and radii off them): the split rule of Build and of the
// Maintainer's splits alike. workers bounds the goroutines the call runs
// on (1: the calling one).
func (p *Partitioning) groups(rows []int, tau int, omega float64, workers int) ([]Group, []groupStat) {
	root := p.newStats(1)
	p.addStats(root, p.attrPos, rows, nil, workers)
	return p.split(rows, root[0], 0, tau, omega, workers)
}

// split recursively splits rows, whose statistic on the attributes is st.
// A split's children come with theirs, from one ordered pass per attribute
// column over rows, so no node's rows are gathered again.
func (p *Partitioning) split(rows []int, st groupStat, depth, tau int, omega float64, workers int) ([]Group, []groupStat) {
	c, r := p.centre(st, len(rows))
	if len(rows) <= 1 || depth >= maxDepth || len(rows) <= tau && (omega <= 0 || r <= omega) {
		return []Group{{Rows: rows, Centroid: c, Radius: r}}, []groupStat{st}
	}
	lists, child := splitQuadrants(p.Rel, p.AttrIdx, rows, c, workers)
	if len(lists) <= 1 {
		// Degenerate split (all tuples in one quadrant, e.g. exact
		// duplicates): fall back to chunking by τ, which always
		// terminates and preserves the size condition. Radius is
		// already as small as the data allows, so each chunk is a leaf
		// as it stands: the children are at the depth limit.
		lists = lists[:0]
		for from := 0; from < len(rows); from += tau {
			to := min(from+tau, len(rows))
			lists = append(lists, rows[from:to:to])
			for j := from; j < to; j++ {
				child[j] = int32(len(lists) - 1)
			}
		}
		depth = maxDepth - 1
	}
	stats := p.newStats(len(lists))
	p.addStats(stats, p.attrPos, rows, child, workers)
	// The children share the workers out, each keeping at least one.
	groups, sub := make([][]Group, len(lists)), make([][]groupStat, len(lists))
	par.For(len(lists), workers, func(i int) {
		groups[i], sub[i] = p.split(lists[i], stats[i], depth+1, tau, omega, max(1, workers/len(lists)))
	})
	return slices.Concat(groups...), slices.Concat(sub...)
}

// splitQuadrants distributes rows into sub-quadrants around the centroid:
// tuples agreeing on which side of the centroid they fall, across all
// attributes, share a quadrant. It returns the children ordered by
// quadrant bitmask, each with its rows in input order in a list of its
// own (cap == len, so an in-place edit of one never reaches another), and
// child[j], the index of rows[j]'s child. The rows are cut into one
// contiguous run per worker: each run's masks are computed and numbered in
// first-seen order on its worker, one map lookup per row; the numbers are
// merged into mask order, and each run then moves its rows to its own
// offsets in the children, the runs joined in row order. So the split —
// and with it every group ID downstream — is deterministic across runs
// and worker counts.
func splitQuadrants(rel *relation.Relation, attrIdx, rows []int, centroid []float64, workers int) (lists [][]int, child []int32) {
	runs := max(1, min(workers, len(rows)))
	run := func(w int) (from, to int) { return w * len(rows) / runs, (w + 1) * len(rows) / runs }
	child = make([]int32, len(rows))
	seen := make([][]uint64, runs) // run w's masks, first seen first
	at := make([][]int, runs)      // run w's rows per mask; then where the next goes
	par.For(runs, workers, func(w int) {
		from, to := run(w)
		num := make(map[uint64]int32)
		for j, mask := range relation.QuadrantMasks(rel, attrIdx, rows[from:to], centroid) {
			id, ok := num[mask]
			if !ok {
				id, num[mask] = int32(len(seen[w])), int32(len(seen[w]))
				seen[w], at[w] = append(seen[w], mask), append(at[w], 0)
			}
			child[from+j] = id
			at[w][id]++
		}
	})
	masks := slices.Concat(seen...)
	slices.Sort(masks)
	masks = slices.Compact(masks)
	index := make([][]int32, runs) // run w's number of a mask → its child
	sizes := make([]int, len(masks))
	for w := range runs {
		index[w] = make([]int32, len(seen[w]))
		for id, mask := range seen[w] {
			k, _ := slices.BinarySearch(masks, mask)
			index[w][id] = int32(k)
			sizes[k], at[w][id] = sizes[k]+at[w][id], sizes[k]
		}
	}
	lists = make([][]int, len(masks))
	for k, n := range sizes {
		lists[k] = make([]int, n)
	}
	par.For(runs, workers, func(w int) {
		from, to := run(w)
		for j := from; j < to; j++ {
			id := child[j]
			k := index[w][id]
			lists[k][at[w][id]] = rows[j]
			at[w][id]++
			child[j] = k
		}
	})
	return lists, child
}

// numericCols lists the relation's numeric columns in schema order — the
// attribute order of R̃.
func numericCols(rel *relation.Relation) []int {
	var idx []int
	for i, schema := 0, rel.Schema(); i < schema.Len(); i++ {
		if schema.Col(i).Type.Numeric() {
			idx = append(idx, i)
		}
	}
	return idx
}

// numericCells reads row's cells on numIdx into dst.
func numericCells(rel *relation.Relation, numIdx []int, row int, dst []float64) []float64 {
	for pos, c := range numIdx {
		dst[pos] = rel.Float(row, c)
	}
	return dst
}

// repCol is R̃'s layout, known here and nowhere else: column 0 is gid,
// column repCol(pos) the mean of the pos-th numeric column of the input.
func repCol(pos int) int { return pos + 1 }

// newReps is R̃'s one constructor: one row per group in gid order, gid plus
// the mean of every numeric attribute of the input relation (not just the
// partitioning attributes) — queries whose attributes are not fully
// covered by the partitioning (coverage < 1, Section 5.2.3) can then still
// be sketched; the representatives are simply worse proxies on the
// uncovered attributes. Row gid is stats[gid]'s sums over the group's
// size, written column by column into typed storage the relation adopts,
// at version len(groups) as if appended row by row. Nothing writes an R̃
// after it is built. It cannot fail: the columns are rel's own plus the
// gid resolveAttrs made sure rel lacks, the cells numbers.
func newReps(rel *relation.Relation, numIdx []int, groups []Group, stats []groupStat) *relation.Relation {
	k := len(stats)
	cols, cells := make([]relation.Column, repCol(len(numIdx))), make([]relation.Cells, repCol(len(numIdx)))
	cols[0], cells[0].I = relation.Column{Name: "gid", Type: relation.Int}, make([]int64, k)
	means := make([]float64, k*len(numIdx))
	for gid, st := range stats {
		cells[0].I[gid] = int64(gid)
		n := float64(len(groups[gid].Rows))
		for pos, s := range st.sums {
			means[pos*k+gid] = s / n
		}
	}
	for pos, c := range numIdx {
		cols[repCol(pos)] = relation.Column{Name: rel.Schema().Col(c).Name, Type: relation.Float}
		cells[repCol(pos)].F = means[pos*k : (pos+1)*k : (pos+1)*k]
	}
	schema, _ := relation.NewSchema(cols...)
	reps, _ := relation.FromColumns(rel.Name()+"_reps", schema, cells, k, uint64(k))
	return reps
}

// Representatives returns R̃(gid, attrs…), one row per group in gid order.
// A view returns the one it was built with, which no one writes and any
// number of goroutines may read. A head stores none: each call builds a
// fresh R̃ from its statistics, under whatever lock serializes its
// Maintainer.
func (p *Partitioning) Representatives() *relation.Relation {
	if p.reps != nil {
		return p.reps
	}
	return newReps(p.Rel, p.numIdx, p.Groups, p.stats)
}

// NumGroups returns the number of groups m.
func (p *Partitioning) NumGroups() int { return len(p.Groups) }

// Remap rewrites every row index through the remap produced by
// relation.Compact (old index → new index, -1 for physically removed
// rows) and rebuilds the gid map for the compacted relation. Group
// membership, centroids, radii, and statistics are untouched:
// compaction only renumbers rows, it does not move tuples between
// groups. A group still naming a removed row is an invariant violation
// (tombstoned rows must have been maintained out of their groups before
// compaction) and is reported as an error with the partitioning left in
// an unspecified state.
//
// Compaction preserves relative row order (survivors shift down), so
// sorted member lists stay sorted.
func (p *Partitioning) Remap(remap []int) (err error) {
	for g := range p.Groups {
		rows := p.Groups[g].Rows
		// Build the renumbered member list in fresh storage: a published
		// view may share these slices with lock-free readers, and Remap
		// does not know which lists the Maintainer cloned since the latest
		// snapshot (Maintainer.own).
		fresh := make([]int, len(rows))
		for i, r := range rows {
			if r < 0 || r >= len(remap) || remap[r] < 0 {
				return fmt.Errorf("partition: remap of group %d member %d, which was compacted away", g, r)
			}
			fresh[i] = remap[r]
		}
		p.Groups[g].Rows = fresh
	}
	p.GID, err = gidMap(p.Rel, p.Groups)
	return err
}

// Restrict derives a view over a subset of the rows, keeping the group
// structure and dropping rows outside the subset, with an R̃ of its own
// built from the members that remain (one pass per numeric column;
// centroids and radii stay the parent's). This is how the paper derives
// partitionings for scaled-down datasets ("randomly removing tuples from
// the original partitions"), which preserves the size condition. Every
// row must be in range.
func (p *Partitioning) Restrict(rows []int) *Partitioning {
	keep := make([]bool, p.Rel.Len())
	for _, r := range rows {
		keep[r] = true
	}
	out := *p
	out.GID, out.stats, out.serial, out.parts = nil, nil, 0, nil
	var groups []Group
	for _, g := range p.Groups { // g is a copy: centroid and radius stay the parent group's
		g.Rows = slices.DeleteFunc(slices.Clone(g.Rows), func(r int) bool { return !keep[r] })
		if len(g.Rows) > 0 {
			groups = append(groups, g)
		}
	}
	_ = out.assemble(groups, out.newStats(len(groups)), out.cols, nil)
	return &out
}

// View returns the frozen image of a head that a solve reads, bound to an
// immutable snapshot of its relation at the same version; Maintainer work
// on the head afterwards cannot tear it. It costs O(groups), not O(rows):
// the Group structs are copied (the Maintainer replaces group fields), no
// gid map or statistic is carried, member and centroid slices are shared
// read-only — the Maintainer writes in place only member lists allocated
// since the latest snapshot of the relation (see Maintainer.own, Remap) —
// and the view's R̃ is built from the head's statistics, its own. The
// view's write-once parts — its group columns (GroupColumn), its member
// layout (Members) and R̃'s row of ones (RepresentativeOnes) — each start
// empty, are filled on first use, are never written again, and are dropped
// with the view; every statement over the view shares them.
//
// View writes nothing on the head, so any number of goroutines may take
// views of it at once; the caller holds the lock that serializes
// mutations, and snap was taken after the head's latest mutation.
func (p *Partitioning) View(snap *relation.Relation) *Partitioning {
	v := *p
	v.Rel, v.GID, v.stats, v.Groups, v.reps = snap, nil, nil, slices.Clone(p.Groups), p.Representatives()
	v.serial, v.parts = viewSerials.Add(1), &viewParts{}
	return &v
}

// GroupColumn returns group gid's cells of Rel's numeric column col as
// float64 in member order (an Int cell converts as float64(v)) — for col
// −1, a row of ones, COUNT's coefficient — and whether this call filled
// them. A View keeps every column so read: the first call copies it out of
// the snapshot, and every later call over the view — from any goroutine —
// returns that same slice, which no one may write. A head or a
// Restrict-ed view keeps nothing and returns nil.
func (p *Partitioning) GroupColumn(gid, col int) (cells []float64, filled bool) {
	if p.parts == nil {
		return nil, false
	}
	c := &p.parts.cells
	c.once.Do(func() { c.groups = make([]atomic.Pointer[cellSlots], len(p.Groups)) })
	row := c.groups[gid].Load()
	if row == nil {
		fresh := make(cellSlots, p.Rel.Schema().Len()+1)
		// A racing reader may have made the group's row first: keep one.
		if row = &fresh; !c.groups[gid].CompareAndSwap(nil, row) {
			row = c.groups[gid].Load()
		}
	}
	slot := &(*row)[col+1]
	if got := slot.Load(); got != nil {
		return *got, false
	}
	cells = p.Rel.Cells(col, p.Groups[gid].Rows)
	// A racing reader may have filled the slot first: keep one copy.
	if !slot.CompareAndSwap(nil, &cells) {
		return *slot.Load(), false
	}
	return cells, true
}

// Members lays the groups out by gid — rows[gid] is group gid's member
// list itself, shared read-only — with gids the groups that have members,
// ascending, and n their total: the eligible rows of a query that filters
// nothing. A View lays them out on its first call, and every later call,
// from any goroutine, returns those same slices with kept set; a head or a
// Restrict-ed view keeps nothing and lays them out on every call.
func (p *Partitioning) Members() (rows [][]int, gids []int, n int, kept bool) {
	if p.parts == nil {
		l := layMembers(p.Groups)
		return l.rows, l.gids, l.n, false
	}
	kept = true
	p.parts.layoutOnce.Do(func() { p.parts.layout, kept = layMembers(p.Groups), false })
	l := &p.parts.layout
	return l.rows, l.gids, l.n, kept
}

// RepresentativeOnes returns a row of ones, one per group: COUNT's
// coefficient over every row of R̃, in gid order. A View makes it on its
// first call, and every later call returns that same slice, which no one
// may write; a head or a Restrict-ed view keeps nothing and returns nil.
func (p *Partitioning) RepresentativeOnes() []float64 {
	if p.parts == nil {
		return nil
	}
	p.parts.onesOnce.Do(func() {
		ones := make([]float64, len(p.Groups))
		for i := range ones {
			ones[i] = 1
		}
		p.parts.ones = ones
	})
	return p.parts.ones
}

// Serial identifies a view: every View call stamps a number no other view
// in the process carries, whether it follows a mutation or a rebuild of
// the partitioning at the same version. Whatever was derived from one view
// can be keyed on its serial without keeping the view, or the snapshot it
// is bound to, alive. It is 0 on a head and on a Restrict-ed view, which
// no key should match.
func (p *Partitioning) Serial() uint64 { return p.serial }

// drifted reports whether a stored mean has left the exact one by more
// than the package's one tolerance for incrementally maintained sums.
func drifted(stored, exact float64) bool {
	return math.Abs(exact-stored) > 1e-6*(1+math.Abs(exact))
}

// check is the walk under both CheckInvariants. It reads a view's groups
// and R̃, or a head's groups and the R̃ its statistics give: group g has ID
// g, is non-empty and within τ, and carries its members' mean as centroid
// and — on every numeric column — as R̃ row g; together the groups name
// exactly the live rows, each once. own adds the caller's assertions on
// each group. The gid map the member lists imply is returned for the
// caller that keeps one.
func (p *Partitioning) check(own func(g *Group) error) ([]int, error) {
	reps := p.Representatives()
	if reps.Len() != len(p.Groups) {
		return nil, fmt.Errorf("partition: %d representatives for %d groups", reps.Len(), len(p.Groups))
	}
	gids, err := gidMap(p.Rel, p.Groups)
	if err != nil {
		return nil, err
	}
	numIdx := numericCols(p.Rel)
	for gid := range p.Groups {
		g := &p.Groups[gid]
		switch {
		case g.ID != gid:
			return nil, fmt.Errorf("partition: group %d has ID %d", gid, g.ID)
		case len(g.Rows) > p.Tau:
			return nil, fmt.Errorf("partition: group %d has %d > τ=%d rows", gid, len(g.Rows), p.Tau)
		}
		for a, exact := range relation.Centroid(p.Rel, p.AttrIdx, g.Rows) {
			if drifted(g.Centroid[a], exact) {
				return nil, fmt.Errorf("partition: group %d centroid drift on %s: %g vs %g", gid, p.Attrs[a], g.Centroid[a], exact)
			}
		}
		if got := reps.IntColumn(0)[gid]; got != int64(gid) {
			return nil, fmt.Errorf("partition: representative row %d carries gid %d", gid, got)
		}
		for pos, exact := range relation.Centroid(p.Rel, numIdx, g.Rows) {
			if got := reps.Float(gid, repCol(pos)); drifted(got, exact) {
				return nil, fmt.Errorf("partition: representative %d stale on %s: %g vs %g",
					gid, reps.Schema().Col(repCol(pos)).Name, got, exact)
			}
		}
		if err := own(g); err != nil {
			return nil, err
		}
	}
	return gids, nil
}

// CheckInvariants verifies a built partitioning or a view of one:
// everything check walks, and that every group respects the radius limit
// when one is enforced (a maintained head may exceed it: a delete moves a
// centroid without a split, and duplicate points admit none; see
// Maintainer.CheckInvariants). It returns the first violation found.
func (p *Partitioning) CheckInvariants() error {
	_, err := p.check(func(g *Group) error {
		if p.Omega > 0 && g.Radius > p.Omega+1e-9 {
			return fmt.Errorf("partition: group %d radius %g > ω=%g", g.ID, g.Radius, p.Omega)
		}
		return nil
	})
	return err
}

// minAbsLive is the smallest non-zero |value| the live rows hold on the
// given columns — the data term of Equation 1 — or +Inf when every value
// is zero.
func minAbsLive(rel *relation.Relation, cols []int) float64 {
	minAbs := math.Inf(1)
	for _, c := range cols {
		for r := 0; r < rel.Len(); r++ {
			if v := math.Abs(rel.Float(r, c)); v > 0 && v < minAbs && !rel.Deleted(r) {
				minAbs = v
			}
		}
	}
	return minAbs
}

// RadiusForEpsilon computes the radius limit ω of Equation 1 that yields
// the (1±ε)⁶ approximation guarantee of Theorem 3:
//
//	ω = min_{t, attr∈A} γ·|t.attr|,  γ = ε (maximize) or ε/(1+ε) (minimize)
//
// The minimum is taken over the live data (a lower bound for the paper's
// minimum over representatives, hence at least as strict). Attributes
// with zero values make the multiplicative guarantee vacuous; zeros are
// skipped and the function returns 0 — meaning "no positive ω achieves
// the bound" — only when every value is zero.
func RadiusForEpsilon(rel *relation.Relation, attrs []string, eps float64, maximize bool) (float64, error) {
	if !(eps >= 0) {
		return 0, fmt.Errorf("partition: ε must be non-negative, got %g", eps)
	}
	attrIdx, err := resolveAttrs(rel, attrs)
	if err != nil {
		return 0, err
	}
	gamma := eps
	if !maximize {
		gamma = eps / (1 + eps)
	}
	minAbs := minAbsLive(rel, attrIdx)
	if math.IsInf(minAbs, 1) {
		return 0, nil
	}
	return gamma * minAbs, nil
}
