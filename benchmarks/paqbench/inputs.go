package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/relation"
)

// The benchmark owns its inputs. This file is a frozen copy of the
// Galaxy generator and the seven Galaxy query templates that live in
// internal/workload today: a later change to internal/workload must not
// move the benchmark's numbers, so nothing here imports it. The program
// under test receives only what this file produces — rows, a CSV file,
// and PaQL strings.

// galaxyAttrs is the union of the attributes the seven templates
// aggregate over, in first-use order: the set the paper calls the
// workload attributes, and what every SketchRefine session here
// partitions on.
var galaxyAttrs = []string{"r", "petrorad", "u", "g", "z", "redshift", "dered_r", "ra", "dec", "i"}

// galaxyCols is the number of columns of a Galaxy row (objid + 10
// attributes).
const galaxyCols = 11

func galaxySchema() (relation.Schema, error) {
	cols := []relation.Column{{Name: "objid", Type: relation.Int}}
	for _, a := range []string{"ra", "dec", "u", "g", "r", "i", "z", "redshift", "petrorad", "dered_r"} {
		cols = append(cols, relation.Column{Name: a, Type: relation.Float})
	}
	return relation.NewSchema(cols...)
}

// galaxyGen draws Galaxy rows: sky coordinates from a 24-cluster
// mixture, five magnitudes correlated through a shared brightness, a
// heavy-tailed redshift and a log-normal petroRad, all rounded to three
// decimals (so a CSV round trip is exact).
type galaxyGen struct {
	rng     *rand.Rand
	centers [24][2]float64
	next    int64 // next objid
}

func newGalaxyGen(seed int64) *galaxyGen {
	g := &galaxyGen{rng: rand.New(rand.NewSource(seed))}
	for c := range g.centers {
		g.centers[c] = [2]float64{g.rng.Float64() * 360, g.rng.Float64()*180 - 90}
	}
	return g
}

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

func (g *galaxyGen) row() []relation.Value {
	rng := g.rng
	var ra, dec float64
	if rng.Float64() < 0.7 {
		c := g.centers[rng.Intn(len(g.centers))]
		ra = math.Mod(c[0]+rng.NormFloat64()*3+360, 360)
		dec = math.Max(-90, math.Min(90, c[1]+rng.NormFloat64()*2))
	} else {
		ra = rng.Float64() * 360
		dec = rng.Float64()*180 - 90
	}
	base := 19 + rng.NormFloat64()*2
	u := base + 1.8 + rng.NormFloat64()*0.5
	gm := base + 0.6 + rng.NormFloat64()*0.3
	r := base + rng.NormFloat64()*0.1
	i := base - 0.3 + rng.NormFloat64()*0.2
	z := base - 0.5 + rng.NormFloat64()*0.3
	redshift := math.Min(7, 0.001+rng.ExpFloat64()*0.5)
	petro := math.Exp(rng.NormFloat64()*0.6 + 1.2)
	extinction := math.Abs(rng.NormFloat64()) * 0.15
	id := g.next
	g.next++
	return []relation.Value{
		relation.I(id),
		relation.F(round3(ra)), relation.F(round3(dec)),
		relation.F(round3(u)), relation.F(round3(gm)), relation.F(round3(r)),
		relation.F(round3(i)), relation.F(round3(z)),
		relation.F(round3(redshift)), relation.F(round3(petro)),
		relation.F(round3(r - extinction)),
	}
}

// galaxyTable generates the n-row table "galaxy" from the seed.
func galaxyTable(n int, seed int64) (*relation.Relation, error) {
	schema, err := galaxySchema()
	if err != nil {
		return nil, err
	}
	rel := relation.New("galaxy", schema)
	g := newGalaxyGen(seed)
	for k := 0; k < n; k++ {
		if err := rel.Append(g.row()...); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// writeCSV writes the table as dir/galaxy.csv (LoadCSV names a relation
// after its file, and the templates say FROM galaxy).
func writeCSV(rel *relation.Relation, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "galaxy.csv")
	if err := relation.SaveCSV(rel, path); err != nil {
		return "", err
	}
	return path, nil
}

// query is one PaQL text the benchmark sends, with what the checks need
// to know about it.
type query struct {
	name     string // Q1..Q7, or Q3.v17 for a variant
	template int    // 0-based template index
	paql     string
	maximize bool
}

// colMeans are the table's column means the templates scale their
// bounds by (the paper synthesises bounds as attribute statistics times
// the expected package size).
type colMeans map[string]float64

func tableMeans(rel *relation.Relation) (colMeans, error) {
	m := make(colMeans)
	for _, a := range galaxyAttrs {
		v, err := relation.Aggregate(rel, relation.Avg, a, nil)
		if err != nil {
			return nil, err
		}
		m[a] = v
	}
	return m, nil
}

// numTemplates is the number of Galaxy query templates.
const numTemplates = 7

// slack widens a template's bounds. Every field is ≥ 0 and every use
// only loosens a constraint, so a variant of a feasible template stays
// feasible; the zero value gives the template itself.
type slack [4]float64

// galaxyQuery renders template t (0..6) with the given slack. Bounds are
// printed with six decimals so that distinct slacks give distinct texts
// (and distinct solution-cache keys).
func galaxyQuery(m colMeans, t int, s slack, name string) query {
	lo := func(v float64, k int) float64 { return v - math.Abs(v)*s[k] }
	hi := func(v float64, k int) float64 { return v + math.Abs(v)*s[k] }
	q := query{name: name, template: t}
	switch t {
	case 0: // Q1: bounded total r magnitude, minimal total apparent size.
		q.paql = fmt.Sprintf(`SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 10 AND SUM(P.r) BETWEEN %.6f AND %.6f
MINIMIZE SUM(P.petrorad)`, lo(9.7*m["r"], 0), hi(10.3*m["r"], 1))
	case 1: // Q2 (hard): tight windows on three correlated magnitudes.
		q.maximize = true
		q.paql = fmt.Sprintf(`SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 8 AND
          SUM(P.u) BETWEEN %.6f AND %.6f AND
          SUM(P.g) BETWEEN %.6f AND %.6f AND
          SUM(P.z) BETWEEN %.6f AND %.6f
MAXIMIZE SUM(P.redshift)`,
			lo(7.96*m["u"], 0), hi(8.04*m["u"], 1),
			lo(7.96*m["g"], 2), hi(8.04*m["g"], 3),
			lo(7.96*m["z"], 0), hi(8.04*m["z"], 2))
	case 2: // Q3: high average redshift, bounded size, brightest.
		q.maximize = true
		q.paql = fmt.Sprintf(`SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 12 AND
          AVG(P.redshift) >= %.6f AND
          SUM(P.petrorad) <= %.6f
MAXIMIZE SUM(P.dered_r)`, lo(1.2*m["redshift"], 0), hi(12*1.1*m["petrorad"], 1))
	case 3: // Q4: an aggregate sky window, minimal total brightness.
		q.paql = fmt.Sprintf(`SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 6 AND
          SUM(P.ra) BETWEEN %.6f AND %.6f AND
          SUM(P.dec) BETWEEN %.6f AND %.6f
MINIMIZE SUM(P.r)`,
			lo(5.4*m["ra"], 0), hi(6.6*m["ra"], 1),
			6*m["dec"]-120*(1+s[2]), 6*m["dec"]+120*(1+s[3]))
	case 4: // Q5: five nearby galaxies (a MAX restriction), largest.
		q.maximize = true
		q.paql = fmt.Sprintf(`SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 5 AND MAX(P.redshift) <= %.6f
MAXIMIZE SUM(P.petrorad)`, hi(m["redshift"], 0))
	case 5: // Q6 (hard): near-equality of two magnitude sums, tight i window.
		q.maximize = true
		d := 9 * (m["u"] - m["g"])
		q.paql = fmt.Sprintf(`SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 9 AND
          SUM(P.u) - SUM(P.g) BETWEEN %.6f AND %.6f AND
          SUM(P.i) BETWEEN %.6f AND %.6f
MAXIMIZE SUM(P.dered_r)`,
			d-0.2*(1+s[0]), d+0.2*(1+s[1]),
			lo(8.98*m["i"], 2), hi(9.02*m["i"], 3))
	default: // Q7: at least half the package high-redshift, bounded total g.
		q.maximize = true
		q.paql = fmt.Sprintf(`SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 10 AND
          (SELECT COUNT(*) FROM P WHERE redshift > %.6f) >= 5 AND
          SUM(P.g) <= %.6f
MAXIMIZE SUM(P.redshift)`, lo(m["redshift"], 0), hi(10.2*m["g"], 1))
	}
	return q
}

// galaxyQueries returns the seven templates, unwidened.
func galaxyQueries(m colMeans) []query {
	qs := make([]query, numTemplates)
	for t := range qs {
		qs[t] = galaxyQuery(m, t, slack{}, fmt.Sprintf("Q%d", t+1))
	}
	return qs
}

// variant widens template t by a slack drawn from rng: each bound moves
// outward by up to 0.2 % of its value.
func variant(m colMeans, t int, rng *rand.Rand, name string) query {
	var s slack
	for k := range s {
		s[k] = rng.Float64() * 0.002
	}
	return galaxyQuery(m, t, s, name)
}

// mutationKind is the kind of one ingest batch.
type mutationKind int

const (
	mutInsert mutationKind = iota
	mutDelete
	mutUpdate
)

func (k mutationKind) String() string { return [...]string{"insert", "delete", "update"}[k] }

// batch is one ingest batch: rows to insert, row indices to delete, or
// row indices with their replacement values.
type batch struct {
	kind mutationKind
	rows []int
	vals [][]relation.Value
}

// mutationStream produces the seeded ingest traffic over a table that
// starts with n live rows numbered 0..n-1: batches of batchRows rows,
// and in every ingestBlock of them 50 % inserts, 30 % deletes and 20 %
// updates in a seeded order, so that every block is the same work. It
// tracks which rows are live (inserted rows get the next indices, as the
// relation assigns them; deleted indices are never reused), so every
// batch it emits is valid when applied in order.
type mutationStream struct {
	rng  *rand.Rand
	gen  *galaxyGen
	live []int // live row indices, unordered
	next int   // index the next inserted row gets
	deck []mutationKind
}

const (
	batchRows   = 100
	ingestBlock = 10 // batches behind one throughput sample
)

func newMutationStream(n, batches int, seed int64) *mutationStream {
	ms := &mutationStream{
		rng:  rand.New(rand.NewSource(seed)),
		gen:  newGalaxyGen(seed ^ 0x5eed),
		live: make([]int, n),
		next: n,
		deck: make([]mutationKind, batches),
	}
	ms.gen.next = int64(n)
	for i := range ms.live {
		ms.live[i] = i
	}
	for i := range ms.deck {
		switch {
		case i%10 < 5:
			ms.deck[i] = mutInsert
		case i%10 < 8:
			ms.deck[i] = mutDelete
		default:
			ms.deck[i] = mutUpdate
		}
	}
	for lo := 0; lo < batches; lo += ingestBlock {
		blk := ms.deck[lo:min(lo+ingestBlock, batches)]
		ms.rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
	}
	return ms
}

// liveRows is the number of live rows after every batch emitted so far.
func (ms *mutationStream) liveRows() int { return len(ms.live) }

// batch emits batch k of the deck.
func (ms *mutationStream) batch(k int) batch {
	b := batch{kind: ms.deck[k]}
	switch b.kind {
	case mutInsert:
		for i := 0; i < batchRows; i++ {
			b.vals = append(b.vals, ms.gen.row())
			ms.live = append(ms.live, ms.next)
			ms.next++
		}
	case mutDelete:
		for i := 0; i < batchRows; i++ {
			j := ms.rng.Intn(len(ms.live))
			b.rows = append(b.rows, ms.live[j])
			ms.live[j] = ms.live[len(ms.live)-1]
			ms.live = ms.live[:len(ms.live)-1]
		}
	default:
		// Distinct victims: a partial Fisher–Yates over the live list.
		for i := 0; i < batchRows; i++ {
			j := i + ms.rng.Intn(len(ms.live)-i)
			ms.live[i], ms.live[j] = ms.live[j], ms.live[i]
			b.rows = append(b.rows, ms.live[i])
			b.vals = append(b.vals, ms.gen.row())
		}
	}
	return b
}
