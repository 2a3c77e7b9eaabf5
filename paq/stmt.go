package paq

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/paql"
	"repro/internal/sketchrefine"
	"repro/internal/translate"
)

// autoDirectMaxVars is the base-relation size up to which MethodAuto
// stays with a single ILP; beyond it, the search-tree blowup the paper
// documents makes SketchRefine the default.
const autoDirectMaxVars = 2000

// Stmt is a prepared package query: parsed, validated, translated
// against the session's relation, and planned — the evaluation method
// is chosen (and justified) at Prepare time, so Plan answers EXPLAIN
// without solving anything.
type Stmt struct {
	sess   *Session
	query  string
	spec   *core.Spec
	method Method
	reason string
	// entry is the registry entry of the partitioning the statement
	// refines over (nil unless the method is sketchrefine). Entries are
	// never removed, so pinning an execution reads its view directly.
	entry *partEntry
	plan  *Plan
	// planDur is the wall-clock cost of Prepare (parse, translate,
	// method resolution, plan build). Planning happens once per
	// statement, so a traced Execute records it as the root's plan_ms.
	planDur time.Duration
	// baseCount says where Prepare got the base relation's size, "memo"
	// or "scan" (dataset.baseCount). A traced Execute records it on the
	// root beside plan_ms.
	baseCount string
	// layout is a filtered SketchRefine statement's eligible rows over
	// the partitioning view it last ran on (sketchrefine.Options.Layout):
	// row ids keyed on the view's serial, reused until the pin hands out
	// another view, and never the view or its snapshot.
	layout atomic.Pointer[sketchrefine.Layout]
}

// Plan is the typed EXPLAIN output of a prepared statement: the chosen
// evaluation method with the reason it was picked, the ILP size, and —
// for SketchRefine — the partitioning it refines over.
type Plan struct {
	// Method is the chosen evaluation strategy.
	Method Method `json:"method"`
	// Reason says why the planner picked it.
	Reason string `json:"reason"`
	// Relation and Rows describe the input.
	Relation string `json:"relation"`
	Rows     int    `json:"rows"`
	// Variables is the number of ILP variables after base-relation
	// elimination (the rows passing WHERE and MIN/MAX restrictions).
	Variables int `json:"variables"`
	// Constraints is the number of linear constraint rows; Restrictions
	// the number of per-tuple eliminations lowered from MIN/MAX
	// predicates.
	Constraints  int `json:"constraints"`
	Restrictions int `json:"restrictions,omitempty"`
	// Repeat is the REPEAT bound (-1 = unlimited repetition).
	Repeat int `json:"repeat"`
	// DatasetVersion is the dataset version the statement was planned
	// at. The plan is a snapshot: mutations after Prepare do not re-plan
	// (Execute still sees the new data — each solve takes the base
	// relation at the version it pins; a filtered SketchRefine statement
	// keeps its eligible row ids only while the pinned partitioning view
	// stays the same), but row/variable counts here describe this version.
	DatasetVersion uint64 `json:"dataset_version"`
	// Objective renders the optimization criterion ("" for
	// feasibility-only queries).
	Objective string `json:"objective,omitempty"`
	// Partitioning describes the offline partitioning (sketchrefine
	// only).
	Partitioning *PartitionInfo `json:"partitioning,omitempty"`
	// CacheKey fingerprints the optimization problem: two statements
	// with equal keys describe the same problem and share solution-cache
	// entries. Stable across sessions over identically named relations.
	CacheKey string `json:"cache_key"`
}

// String renders the plan for terminals (the -explain output).
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "method:       %s\n", p.Method)
	fmt.Fprintf(&b, "reason:       %s\n", p.Reason)
	fmt.Fprintf(&b, "relation:     %s (%d rows, %d eligible, v%d)\n", p.Relation, p.Rows, p.Variables, p.DatasetVersion)
	fmt.Fprintf(&b, "ilp:          %d variables × %d constraints", p.Variables, p.Constraints)
	if p.Restrictions > 0 {
		fmt.Fprintf(&b, " (+%d tuple restrictions)", p.Restrictions)
	}
	b.WriteString("\n")
	if p.Repeat >= 0 {
		fmt.Fprintf(&b, "repeat:       %d (each tuple at most %d×)\n", p.Repeat, p.Repeat+1)
	} else {
		fmt.Fprintf(&b, "repeat:       unlimited\n")
	}
	if p.Objective != "" {
		fmt.Fprintf(&b, "objective:    %s\n", p.Objective)
	}
	if pi := p.Partitioning; pi != nil {
		fmt.Fprintf(&b, "partitioning: %d groups, τ=%d, attrs [%s], built in %.0fms\n",
			pi.Groups, pi.Tau, strings.Join(pi.Attrs, " "), pi.BuildMS)
	}
	fmt.Fprintf(&b, "cache-key:    %s", p.CacheKey)
	return b.String()
}

// Prepare parses, validates, and translates a PaQL query against the
// session's relation, chooses the evaluation method (resolving
// MethodAuto and lazily warming the partitioning a SketchRefine plan
// needs), and returns the prepared statement. Parse failures are
// *ParseError; type errors in the translation satisfy
// errors.Is(err, ErrTypeMismatch).
//
// The only option valid here is WithMethod, overriding the session's
// default for this statement.
func (s *Session) Prepare(query string, opts ...Option) (*Stmt, error) {
	t0 := time.Now()
	cfg := s.cfg
	if err := applyPrepare(&cfg, opts); err != nil {
		return nil, err
	}
	q, err := paql.Parse(query)
	if err != nil {
		return nil, mapParseErr(err)
	}
	// Translation, method resolution, and planning read the relation and
	// may build a partitioning; hold the dataset read lock so mutations
	// cannot interleave.
	s.d.dataMu.RLock()
	defer s.d.dataMu.RUnlock()
	spec, err := translate.Translate(q, s.d.rel)
	if err != nil {
		return nil, mapTranslateErr(err)
	}
	nBase, from := s.d.baseCount(spec) // planning needs the base relation's size, not its rows
	st := &Stmt{sess: s, query: query, spec: spec, baseCount: from}
	if err := st.resolveMethod(cfg.method, nBase); err != nil {
		return nil, err
	}
	st.buildPlan(nBase)
	st.planDur = time.Since(t0)
	return st, nil
}

// resolveMethod picks the statement's evaluation method, warming the
// partitioning when SketchRefine needs one. MethodAuto follows the size
// rule: DIRECT while the nBase eligible tuples fit a single ILP,
// SketchRefine beyond that — or DIRECT again when no partitioning can
// be built.
func (st *Stmt) resolveMethod(m Method, nBase int) error {
	s := st.sess
	if m == MethodDirect || m == MethodNaive {
		st.method = m
		st.reason = "method fixed by WithMethod"
		return nil
	}
	if m != MethodSketchRefine && nBase <= autoDirectMaxVars {
		st.method = MethodDirect
		st.reason = fmt.Sprintf("auto: %d eligible tuples fit a single ILP (threshold %d)", nBase, autoDirectMaxVars)
		return nil
	}
	attrs := s.partitionAttrsFor(st.spec.QueryAttrs())
	e, err := s.resolve(partKey(attrs), attrs)
	switch {
	case m == MethodSketchRefine && err != nil:
		return err
	case m == MethodSketchRefine:
		st.method, st.entry = m, e
		st.reason = "method fixed by WithMethod"
	case err != nil:
		st.method = MethodDirect
		st.reason = fmt.Sprintf("auto: %d eligible tuples exceed the single-ILP threshold, but no partitioning is available (%v); falling back to DIRECT", nBase, err)
	default:
		p := e.part.Load()
		st.method, st.entry = MethodSketchRefine, e
		st.reason = fmt.Sprintf("auto: %d eligible tuples exceed the single-ILP threshold (%d); refining over %d groups (τ=%d)",
			nBase, autoDirectMaxVars, p.NumGroups(), p.Tau)
	}
	return nil
}

// shortHash compresses a cache key for display (the raw key spells out
// the whole query structure).
func shortHash(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:8])
}

// buildPlan materializes the typed plan once at Prepare.
func (st *Stmt) buildPlan(nBase int) {
	spec := st.spec
	plan := &Plan{
		Method:         st.method,
		Reason:         st.reason,
		Relation:       st.sess.d.rel.Name(),
		Rows:           st.sess.d.rel.Live(),
		Variables:      nBase,
		Constraints:    len(spec.Constraints),
		Restrictions:   len(spec.Restrictions),
		Repeat:         spec.Repeat,
		DatasetVersion: st.sess.d.rel.Version(),
		CacheKey:       stableCacheKey(st.method, spec),
	}
	if spec.Objective != nil {
		plan.Objective = spec.Objective.String()
	}
	if st.entry != nil {
		plan.Partitioning = infoOf(st.entry.part.Load())
	}
	st.plan = plan
}

// Plan returns the statement's typed EXPLAIN output. It never solves.
func (st *Stmt) Plan() *Plan { return st.plan }

// Query returns the original PaQL text.
func (st *Stmt) Query() string { return st.query }

// Method returns the statement's resolved evaluation method.
func (st *Stmt) Method() Method { return st.method }

// QueryAttrs returns the numeric attributes the query aggregates over
// (what partitioning coverage is measured against).
func (st *Stmt) QueryAttrs() []string { return st.spec.QueryAttrs() }

// stableCacheKey fingerprints the optimization problem for display. It
// is the engine's cache key — prefixed with the resolved method, since
// each method has its own solution cache and MethodAuto may resolve
// otherwise identical statements differently — with the relation's
// memory address (process identity) replaced by its name, live size,
// and dataset version, hashed so EXPLAIN output stays one line; equal
// keys ⇒ the same method solving the same problem over identically
// named relations with identical mutation histories.
func stableCacheKey(m Method, spec *core.Spec) string {
	return shortHash(fmt.Sprintf("method=%s;rel=%s/%d@v%d%s", m, spec.Rel.Name(), spec.Rel.Live(), spec.Rel.Version(), engine.QueryKey(spec)))
}
