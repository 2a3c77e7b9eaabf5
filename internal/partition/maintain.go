package partition

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/relation"
)

// This file implements incremental partition maintenance: the live-data
// counterpart of the paper's offline partitioner. The offline algorithm
// assumes a static relation; a long-lived service cannot afford a full
// repartition on every ingested batch, so a Maintainer keeps an existing
// Partitioning valid under interleaved inserts, deletes, and updates:
//
//   - new rows are routed to the leaf cell (group) with the nearest
//     centroid, exactly the cell a quad-tree descent would reach;
//   - a group exceeding the size threshold τ (or, when enforced, the
//     radius limit ω) is split in place with the same deterministic
//     quadrant recursion the offline builder uses;
//   - a group falling below the fill floor is merged into its nearest
//     sibling (and re-split if the merge overshoots τ);
//   - an updated row leaves its groups at the cells the relation still
//     holds, is written, and re-enters them as a fresh insert (UpdateRows),
//     so no group holds a member at cells other than the relation's;
//   - a member list is copied at most once per snapshot of the relation,
//     the first time maintenance edits it after the snapshot, and edited
//     in place from then on, across batches (own) — the rule the
//     relation's own columns follow (relation.Stamp);
//   - each group's statistic, adopted as the head's constructor made it,
//     is kept incrementally: running sums give the centroid (and, when a
//     view is taken, the R̃ row), and the least and greatest member cell
//     on each attribute the exact radius. An insert widens them, a merge
//     takes both sides', and only a removed member that held one sends the
//     maintainer back over the group's cells, for that attribute. A split's
//     children take the builder's statistics; only a heal adds a group up
//     whole. None of it starts a goroutine.
//   - no R̃ is kept: a View builds its own from the statistics (newReps),
//     so a batch, replayed or live, pays nothing for representatives.
//
// SketchRefine's quality guarantees (Theorem 3) are stated in terms of
// the maximum group radius; because maintenance keeps every radius exact,
// the maintained partitioning is exactly as good as a rebuilt one whose ω
// equals MaxRadiusBound. QualityBound exposes the resulting multiplicative
// factor.

// minFillDivisor sets the merge floor: a group shrinking below
// τ/minFillDivisor rows is merged into its nearest sibling.
const minFillDivisor = 4

// MaintOptions is the (empty) configuration of a Maintainer: the merge
// floor is a constant.
type MaintOptions struct{}

// MaintStats counts maintenance work, monotonically.
type MaintStats struct {
	// Inserts, Deletes, and Updates count routed row mutations.
	Inserts, Deletes, Updates uint64
	// Splits counts groups split for exceeding τ (or ω); Merges counts
	// underfull groups folded into a sibling.
	Splits, Merges uint64
	// Heals counts whole-group recomputations of an update's old group
	// when its cells were overwritten before it left (Maintainer.Update).
	Heals uint64
	// Rebuilds counts full from-scratch repartitions. The maintainer
	// itself never rebuilds — the field exists so callers can assert the
	// hot path stayed incremental.
	Rebuilds uint64
}

// gState is the maintainer's bookkeeping for one group, beside the
// group's statistic on the head.
type gState struct {
	// noSplit marks a group whose last radius-driven split attempt was
	// degenerate (duplicate points); cleared on the next membership
	// change so the maintainer does not retry hopeless splits every op.
	noSplit bool
	// owned is the relation's copy-on-write stamp (relation.Stamp) when
	// own allocated the group's member list, zero when own did not
	// allocate it: a list is the maintainer's alone until the next
	// snapshot of the relation.
	owned uint64
}

// Maintainer is the one writer of a head Partitioning: it keeps it valid
// under interleaved row inserts, deletes, and updates, mutating Groups,
// GID and the group statistics in place, and it alone reads GID. It keeps
// no R̃. Solves never read the head — they read a View taken under the
// lock that serializes maintenance (paq's dataset holds a read-write lock
// around it), so update propagation is a stage of its own with its own
// state. A Maintainer is not itself safe for concurrent use.
type Maintainer struct {
	p            *Partitioning
	groups       []*gState
	stats        MaintStats
	cells, point []float64 // scratch: a row's numeric cells, and its point on the attributes
	// order is nearest's attribute order, fixed at NewMaintainer.
	order []int
}

// NewMaintainer wraps an existing head partitioning for incremental
// maintenance. The partitioning must satisfy its invariants; its groups
// and their statistics are adopted as they are, in O(groups), without a
// pass over the rows.
func NewMaintainer(p *Partitioning, _ MaintOptions) *Maintainer {
	m := &Maintainer{p: p, cells: make([]float64, len(p.numIdx)), point: make([]float64, len(p.AttrIdx)),
		order: spreadOrder(p.Groups, len(p.AttrIdx))}
	m.groups = make([]*gState, len(p.Groups))
	for gid := range m.groups {
		m.groups[gid] = &gState{}
	}
	return m
}

// Partitioning returns the maintained partitioning (the same pointer
// the maintainer was built around; it is updated in place).
func (m *Maintainer) Partitioning() *Partitioning { return m.p }

// Stats returns the maintenance counters.
func (m *Maintainer) Stats() MaintStats { return m.stats }

// RestoreStats overwrites the maintenance counters — the warm-start
// path: a maintainer reconstructed from a durability snapshot continues
// the counters of the maintainer it replaces, so a recovered service
// reports cumulative (not since-boot) maintenance work.
func (m *Maintainer) RestoreStats(st MaintStats) { m.stats = st }

// extremesRadius is Definition 2's radius about centroid c, read off the
// least and greatest cell of each attribute: fl(x − c) is monotone in x,
// so it is relation.Radius's bit for bit. A NaN distance (a NaN centroid,
// or an infinite extreme minus an equal centroid) is stepped over, as
// relation.Radius steps over it.
func extremesRadius(lo, hi, c []float64) float64 {
	r := 0.0
	for a, ca := range c {
		for _, v := range [2]float64{lo[a], hi[a]} {
			if d := math.Abs(v - ca); d > r {
				r = d
			}
		}
	}
	return r
}

// addUp sets group gid's statistic over its members from scratch, one
// ordered pass per numeric column, and re-derives the group from it.
func (m *Maintainer) addUp(gid int) {
	m.p.fill(m.p.stats[gid:gid+1], m.p.Groups[gid:gid+1], m.p.cols, 1)
	m.recentre(gid)
}

// heal adds group gid up whole: the settling of an update whose old cells
// were overwritten before the row left.
func (m *Maintainer) heal(gid int) {
	m.addUp(gid)
	m.stats.Heals++
}

// recentre re-derives group gid's centroid from its sums and its radius
// from its extremes after its membership changed.
func (m *Maintainer) recentre(gid int) {
	g := &m.p.Groups[gid]
	g.Centroid, g.Radius = m.p.centre(m.p.stats[gid], len(g.Rows))
	m.groups[gid].noSplit = false
}

// nearest returns the gid whose centroid is closest to point in L∞ over
// the partitioning attributes — the metric of Definition 2's radius, NaN
// differences stepped over — with the lowest gid on ties, excluding skip
// (-1 for none); -1 when no other group exists. It is the one routing
// scan, linear in the groups. A group's distance stops growing once it
// reaches the best so far, which it can then no longer beat; reading the
// attributes widest spread first (m.order) gets there soonest.
func (m *Maintainer) nearest(point []float64, skip int) int {
	best, bestD := -1, math.Inf(1)
	for gid := range m.p.Groups {
		if gid == skip {
			continue
		}
		c, d := m.p.Groups[gid].Centroid, 0.0
		for _, a := range m.order {
			if v := math.Abs(point[a] - c[a]); v > d {
				if d = v; d >= bestD {
					break
				}
			}
		}
		if d < bestD {
			best, bestD = gid, d
		}
	}
	return best
}

// spreadOrder lists the attributes by the spread of the groups' centroids
// on them, widest first, NaN coordinates left out; ties keep attribute
// order.
func spreadOrder(groups []Group, attrs int) []int {
	spread := make([]float64, attrs)
	for a := range spread {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, g := range groups {
			if v := g.Centroid[a]; v < lo {
				lo = v
			}
			if v := g.Centroid[a]; v > hi {
				hi = v
			}
		}
		if spread[a] = hi - lo; !(spread[a] >= 0) {
			spread[a] = 0 // no group, or ±Inf at both ends
		}
	}
	order := make([]int, attrs)
	for a := range order {
		order[a] = a
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(spread[b], spread[a]) })
	return order
}

// Insert routes freshly appended (live) rows of the relation into the
// partitioning: each row joins the group with the nearest centroid, and
// any group pushed past τ (or past ω when a radius limit is enforced)
// is split in place. Call it after appending the rows to the relation.
func (m *Maintainer) Insert(rows ...int) error {
	return m.batch(rows, &m.stats.Inserts, m.insertOne)
}

// batch runs one maintenance step per row, counting each.
func (m *Maintainer) batch(rows []int, count *uint64, step func(row int) error) error {
	for _, row := range rows {
		if err := step(row); err != nil {
			return err
		}
		*count++
	}
	return nil
}

// own returns group gid with a member list the maintainer may edit in
// place, by the relation's copy-on-write rule (relation.Stamp): a list
// allocated before p.Rel's latest snapshot is cloned, with headroom, once
// per snapshot, and one allocated since is edited in place across batches.
// The frozen-view rule rests on this alone: a reader outside the write
// lock reaches head lists only through a View bound to a snapshot at the
// head's version, and every edit here comes with a version bump, so that
// snapshot follows the edit; and no other group aliases the list (a
// degenerate split's chunks share one array, and start unowned, as every
// split's children do).
func (m *Maintainer) own(gid int) *Group {
	g, st, rel := &m.p.Groups[gid], m.groups[gid], m.p.Rel
	if !rel.Owns(st.owned) {
		g.Rows = slices.Grow(slices.Clip(g.Rows), len(g.Rows)/8+8) // clipped, so Grow reallocates
		st.owned = rel.Stamp()
	}
	return g
}

func (m *Maintainer) insertOne(row int) error {
	if row < 0 || row >= m.p.Rel.Len() || m.p.Rel.Deleted(row) {
		return fmt.Errorf("partition: insert of invalid row %d", row)
	}
	// Grow the gid map to cover appended rows.
	m.p.GID = unassigned(m.p.GID, m.p.Rel.Len())
	if m.p.GID[row] != -1 {
		return fmt.Errorf("partition: row %d is already in group %d", row, m.p.GID[row])
	}
	// The row's cells, read once; on the attributes, its point.
	cells, pt := numericCells(m.p.Rel, m.p.numIdx, row, m.cells), m.point
	for a, pos := range m.p.attrPos {
		pt[a] = cells[pos]
	}
	gid := m.nearest(pt, -1)
	if gid < 0 {
		// Every group was deleted away: found a new first cell.
		m.p.Groups = append(m.p.Groups, Group{ID: 0, Rows: []int{row}})
		m.p.stats = append(m.p.stats, m.p.newStats(1)...)
		m.groups = append(m.groups, &gState{})
		m.addUp(0)
		m.p.GID[row] = 0
		return nil
	}
	g, st := m.own(gid), m.p.stats[gid]
	at, _ := slices.BinarySearch(g.Rows, row)
	g.Rows = slices.Insert(g.Rows, at, row)
	for pos, v := range cells {
		st.sums[pos] += v
	}
	for a, v := range pt {
		st.widen(a, v)
	}
	m.p.GID[row] = gid
	m.recentre(gid)
	m.splitMaybe(gid)
	return nil
}

// detach takes a row out of its group's member list and the gid map and
// returns the group, which may be left empty. Only the maintainer writes
// either, so a list lacking the row is a breach, reported with both intact.
func (m *Maintainer) detach(row int) (int, error) {
	if row < 0 || row >= len(m.p.GID) || m.p.GID[row] < 0 {
		return -1, fmt.Errorf("partition: row %d is in no group", row)
	}
	gid := m.p.GID[row]
	at, found := slices.BinarySearch(m.p.Groups[gid].Rows, row)
	if !found {
		return -1, fmt.Errorf("partition: the gid map puts row %d in group %d, whose member list lacks it", row, gid)
	}
	g := m.own(gid)
	g.Rows = slices.Delete(g.Rows, at, at+1)
	m.p.GID[row] = -1
	return gid, nil
}

// Delete removes just-tombstoned rows from their groups. Call it after
// tombstoning the rows in the relation (their cells must still be
// readable, which relation.Delete guarantees).
func (m *Maintainer) Delete(rows ...int) error {
	return m.batch(rows, &m.stats.Deletes, m.leave)
}

// leave takes row out of its group at the cells the relation holds for it.
func (m *Maintainer) leave(row int) error {
	gid, err := m.detach(row)
	if err == nil {
		m.shrink(gid, numericCells(m.p.Rel, m.p.numIdx, row, m.cells))
	}
	return err
}

// shrink settles group gid after detach took out a member whose numeric
// cells read old while it was one (nil: overwritten, so the group is healed).
// Only an attribute on which the member held an extreme is read again.
func (m *Maintainer) shrink(gid int, old []float64) {
	g, st := &m.p.Groups[gid], m.p.stats[gid]
	switch {
	case len(g.Rows) == 0:
		m.dropGroup(gid)
		return
	case old == nil:
		m.heal(gid)
	default:
		for pos, v := range old {
			st.sums[pos] -= v
		}
		for a, pos := range m.p.attrPos {
			if v := old[pos]; v == st.lo[a] || v == st.hi[a] {
				cell := relation.GroupStats(m.p.Rel, m.p.AttrIdx[a], g.Rows, nil, 1)
				st.lo[a], st.hi[a] = cell[1], cell[2]
			}
		}
		m.recentre(gid)
	}
	m.mergeMaybe(gid)
}

// UpdateRows overwrites live, distinct rows in place and re-routes them
// through every maintainer in ms, all over the relation set writes to, one
// row at a time: the row leaves its group in each at the cells the
// relation still holds, set(i) writes rows[i]'s new cells, and the row
// re-enters each as a fresh insert.
func UpdateRows(ms []*Maintainer, rows []int, set func(i int) error) error {
	for i, row := range rows {
		for _, m := range ms {
			if err := m.leave(row); err != nil {
				return err
			}
		}
		if err := set(i); err != nil {
			return err
		}
		for _, m := range ms {
			if err := m.insertOne(row); err != nil {
				return err
			}
			m.stats.Updates++
		}
	}
	return nil
}

// Update re-routes live, distinct rows whose cells relation.Set already
// overwrote, healing each row's old group, O(|group|) per row: the frozen
// benchmark ladder's path and the tests' reference (see UpdateRows).
func (m *Maintainer) Update(rows ...int) error {
	return m.batch(rows, &m.stats.Updates, func(row int) error {
		gid, err := m.detach(row)
		if err == nil {
			m.shrink(gid, nil)
			err = m.insertOne(row)
		}
		return err
	})
}

// splitMaybe splits a group violating τ (or ω) with the offline
// builder's deterministic quadrant recursion. The first replacement
// keeps the slot; the rest are appended, so surviving gids stay stable.
func (m *Maintainer) splitMaybe(gid int) {
	g := &m.p.Groups[gid]
	if len(g.Rows) <= m.p.Tau && (m.p.Omega <= 0 || g.Radius <= m.p.Omega || m.groups[gid].noSplit) {
		return
	}
	parts, stats := m.p.groups(g.Rows, m.p.Tau, m.p.Omega, 1)
	if len(parts) <= 1 {
		// Degenerate (duplicate points): no split exists. Remember, so
		// the next mutations don't retry until membership changes.
		m.groups[gid].noSplit = true
		return
	}
	m.p.fill(stats, parts, m.p.cols[len(m.p.attrPos):], 1)
	m.stats.Splits++
	for i, ng := range parts {
		slot := gid
		if i > 0 {
			slot = len(m.p.Groups)
			m.p.Groups, m.p.stats = append(m.p.Groups, Group{}), append(m.p.stats, groupStat{})
			m.groups = append(m.groups, nil)
		}
		ng.ID = slot
		m.p.Groups[slot], m.p.stats[slot], m.groups[slot] = ng, stats[i], &gState{}
		for _, r := range ng.Rows {
			m.p.GID[r] = slot
		}
	}
}

// mergeMaybe folds an underfull group into its nearest sibling,
// re-splitting the result if the merge overshoots τ.
func (m *Maintainer) mergeMaybe(gid int) {
	g := &m.p.Groups[gid]
	if len(g.Rows) >= m.p.Tau/minFillDivisor {
		return
	}
	best := m.nearest(g.Centroid, gid)
	if best < 0 {
		return // the only group
	}
	m.stats.Merges++
	t, ts, src := &m.p.Groups[best], m.p.stats[best], m.p.stats[gid]
	t.Rows = mergeSorted(t.Rows, g.Rows)
	for pos := range ts.sums {
		ts.sums[pos] += src.sums[pos]
	}
	for a := range ts.lo {
		ts.lo[a], ts.hi[a] = min(ts.lo[a], src.lo[a]), max(ts.hi[a], src.hi[a])
	}
	for _, r := range g.Rows {
		m.p.GID[r] = best
	}
	m.recentre(best)
	// Drop the emptied source slot first so the split below sees dense
	// ids. dropGroup may move the last group into gid — best tracks it.
	g.Rows = nil
	last := len(m.p.Groups) - 1
	m.dropGroup(gid)
	if best == last {
		best = gid
	}
	m.splitMaybe(best)
}

// dropGroup removes a (now empty) group slot, keeping gids dense by
// moving the last group into the vacated slot.
func (m *Maintainer) dropGroup(gid int) {
	last := len(m.p.Groups) - 1
	if gid != last {
		m.p.Groups[gid], m.p.stats[gid], m.groups[gid] = m.p.Groups[last], m.p.stats[last], m.groups[last]
		m.p.Groups[gid].ID = gid
		for _, r := range m.p.Groups[gid].Rows {
			m.p.GID[r] = gid
		}
	}
	m.p.Groups, m.p.stats, m.groups = m.p.Groups[:last], m.p.stats[:last], m.groups[:last]
}

// MaxRadiusBound returns the largest maintained group radius, which is
// exact — the effective ω of the partitioning. SketchRefine's guarantees
// for a maintained partitioning are those of an offline partitioning built
// with this radius limit.
func (m *Maintainer) MaxRadiusBound() float64 {
	r := 0.0
	for _, g := range m.p.Groups {
		r = max(r, g.Radius)
	}
	return r
}

// QualityBound returns the multiplicative factor F ≥ 1 by which a
// SketchRefine objective over the maintained partitioning may trail one
// over a freshly rebuilt partitioning, under Theorem 3's analysis: the
// maintained partitioning behaves like an offline one with
// ω = MaxRadiusBound, giving ε = ω·γ⁻¹ via Equation 1 (γ = ε for
// maximization, ε/(1+ε) for minimization against the smallest non-zero
// |t.attr| of the live data) and F = (1+ε)⁶. The radii it rests on are
// exact, so it moves with the groups' true spread, and it is +Inf when the
// data admits no multiplicative guarantee (zero-valued attributes),
// mirroring RadiusForEpsilon.
func (m *Maintainer) QualityBound(maximize bool) float64 {
	omega := m.MaxRadiusBound()
	if omega == 0 {
		return 1
	}
	minAbs := minAbsLive(m.p.Rel, m.p.AttrIdx)
	if math.IsInf(minAbs, 1) {
		return math.Inf(1)
	}
	gamma := omega / minAbs
	eps := gamma
	if !maximize {
		// γ = ε/(1+ε) ⇒ ε = γ/(1-γ), unbounded once γ ≥ 1.
		if gamma >= 1 {
			return math.Inf(1)
		}
		eps = gamma / (1 - gamma)
	}
	return math.Pow(1+eps, 6)
}

// CheckInvariants verifies the maintained head: everything the shared
// walk asserts of any partitioning (see Partitioning.check), and what
// only its writer can — member lists stay sorted, each group's extremes
// are its members' and its radius is the exact one about its maintained
// centroid, bit for bit, and the gid map is the one the lists imply.
func (m *Maintainer) CheckInvariants() error {
	p := m.p
	if len(m.groups) != len(p.Groups) || len(p.stats) != len(p.Groups) {
		return fmt.Errorf("partition: the maintainer keeps state for %d groups and statistics for %d, of %d", len(m.groups), len(p.stats), len(p.Groups))
	}
	gids, err := p.check(func(g *Group) error {
		if !slices.IsSorted(g.Rows) {
			return fmt.Errorf("partition: maintained group %d member list is not sorted", g.ID)
		}
		st := p.stats[g.ID]
		if lo, hi := relation.Extremes(p.Rel, p.AttrIdx, g.Rows); !slices.Equal(lo, st.lo) || !slices.Equal(hi, st.hi) {
			return fmt.Errorf("partition: maintained group %d extremes [%v, %v], its members' [%v, %v]", g.ID, st.lo, st.hi, lo, hi)
		}
		if exact := relation.Radius(p.Rel, p.AttrIdx, g.Rows, g.Centroid); g.Radius != exact {
			return fmt.Errorf("partition: maintained group %d radius %g, not the exact %g", g.ID, g.Radius, exact)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if !slices.Equal(gids, p.GID) {
		return fmt.Errorf("partition: the maintained gid map is not the one the member lists imply")
	}
	return nil
}

// mergeSorted merges two sorted slices into a new sorted slice.
func mergeSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if b[0] < a[0] {
			a, b = b, a
		}
		out, a = append(out, a[0]), a[1:]
	}
	return append(append(out, a...), b...)
}
