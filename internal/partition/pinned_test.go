package partition

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/par"
	"repro/internal/relation"
	"repro/internal/workload"
)

// fingerprint hashes everything a build decides: every group's member
// rows in order, its centroid and radius bits, and the bits of every
// cell of R̃.
func fingerprint(p *Partitioning) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(p.Groups)))
	for _, g := range p.Groups {
		put(uint64(len(g.Rows)))
		for _, r := range g.Rows {
			put(uint64(r))
		}
		for _, c := range g.Centroid {
			put(math.Float64bits(c))
		}
		put(math.Float64bits(g.Radius))
	}
	reps := p.Representatives()
	for i := 0; i < reps.Len(); i++ {
		for c := 0; c < reps.Schema().Len(); c++ {
			put(math.Float64bits(reps.Float(i, c)))
		}
	}
	return h.Sum64()
}

// TestBuildMatchesPinnedFingerprint pins Build's output across versions
// of the builder, where TestBuildWorkersDifferential compares one version
// with itself: the fingerprints were taken from the sequential,
// token-semaphore builder that computed every group's radius and split
// through a map of row lists, and every worker count must still reproduce
// them bit for bit. A one-worker build must start no goroutine.
func TestBuildMatchesPinnedFingerprint(t *testing.T) {
	galaxy, tpch := workload.Galaxy(20_000, 7), workload.TPCH(20_000, 7)
	cases := []struct {
		name   string
		rel    *relation.Relation
		attrs  []string
		omega  float64
		tau    int // 0: 10 % of the rows
		groups int
		want   uint64
	}{
		{"galaxy", galaxy, workload.GalaxyAttrs, 0, 0, 664, 0x456ccbdd6a5922ec},
		{"galaxy-omega", galaxy, workload.GalaxyAttrs, 90, 0, 4435, 0x48da13eb836be6b2},
		{"galaxy-int", galaxy, []string{"objid", "ra", "dec"}, 0, 0, 50, 0x75ddcab83c582ec4},
		{"galaxy-1d", galaxy, []string{"redshift"}, 0, 8000, 3, 0xedabb3996c4b64c2},
		{"tpch", tpch, workload.TPCHAttrs, 0, 0, 365, 0x8972625ffc9c5ed0},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 4} {
			tau := tc.tau
			if tau == 0 {
				tau = tc.rel.Len()/10 + 1
			}
			before := par.Started()
			p, err := Build(tc.rel, Options{Attrs: tc.attrs, SizeThreshold: tau, RadiusLimit: tc.omega, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if workers == 1 && par.Started() != before {
				t.Errorf("%s: a one-worker build started %d goroutines", tc.name, par.Started()-before)
			}
			if got := fingerprint(p); len(p.Groups) != tc.groups || got != tc.want {
				t.Errorf("%s workers=%d: %d groups, fingerprint %#x; want %d, %#x", tc.name, workers, len(p.Groups), got, tc.groups, tc.want)
			}
		}
	}
}
