// Package driver loads, type-checks, and analyzes Go packages for
// paqlint without any dependency outside the standard library. It
// shells out to `go list -e -export -json -deps -test` for the package
// graph (all local, no network), parses the target packages' source,
// resolves imports through the compiler's export data via
// go/importer, and runs each analyzer over every type-checked package.
//
// Suppression: a finding is dropped when the offending line, or the
// line above it, carries a directive
//
//	//lint:ignore <analyzer>[,<analyzer>...] <justification>
//
// naming the analyzer. A directive without a justification is itself
// reported — the suppression contract (docs/INVARIANTS.md) is that
// every exception explains itself.
package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// ImportPath is the package's unique identity in the build graph;
	// for in-package test variants it has the form "p [p.test]".
	ImportPath string
	// Path is the plain import path (ImportPath without the test
	// variant decoration) — what analyzers should match configs on.
	Path string
	Fset *token.FileSet
	// Files holds the parsed syntax, comments included.
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Finding is one diagnostic from one analyzer, resolved to a position.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding the way compilers do, so editors can jump
// to it: path:line:col: message (analyzer).
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message, f.Analyzer)
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	ForTest    string
	DepOnly    bool
	Standard   bool
	GoFiles    []string
	CgoFiles   []string
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// listFields is the -json field list: requesting only what we read
// keeps `go list` from computing (and us from decoding) the rest.
const listFields = "ImportPath,Dir,Export,ForTest,DepOnly,Standard,GoFiles,CgoFiles,ImportMap,Error"

// Load returns every package matched by patterns (plus their in-package
// and external test variants), parsed and type-checked, in a stable
// order. dir is the directory to resolve patterns from (the module
// root or any directory inside it).
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-export", "-json=" + listFields, "-deps", "-test", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("driver: go list: %v\n%s", err, stderr.String())
	}

	exports := make(map[string]string)
	var targets []*listPkg
	hasVariant := make(map[string]bool) // base paths subsumed by a [p.test] variant
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("driver: decoding go list output: %v", err)
		}
		if p.Error != nil && !p.DepOnly {
			return nil, fmt.Errorf("driver: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.DepOnly || p.Standard || strings.HasSuffix(p.ImportPath, ".test") || len(p.GoFiles)+len(p.CgoFiles) == 0 {
			continue
		}
		if p.ForTest != "" && p.ImportPath == p.ForTest+" ["+p.ForTest+".test]" {
			// In-package test variant: its GoFiles are the base
			// package's plus the _test.go files, so analyzing both
			// would duplicate every non-test finding.
			hasVariant[p.ForTest] = true
		}
		targets = append(targets, p)
	}

	var pkgs []*Package
	for _, t := range targets {
		if t.ForTest == "" && hasVariant[t.ImportPath] {
			continue
		}
		pkg, err := check(t, exports)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	return pkgs, nil
}

// check parses and type-checks one go list entry against the export
// data of its dependencies.
func check(t *listPkg, exports map[string]string) (*Package, error) {
	fset := token.NewFileSet()
	var names []string
	names = append(names, t.GoFiles...)
	names = append(names, t.CgoFiles...)
	var files []*ast.File
	for _, name := range names {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(t.Dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("driver: %s: %v", t.ImportPath, err)
		}
		files = append(files, f)
	}
	base := t.ImportPath
	if i := strings.IndexByte(base, ' '); i >= 0 {
		base = base[:i]
	}
	pkg, info, err := CheckFiles(fset, base, files, t.ImportMap, exports)
	if err != nil {
		return nil, fmt.Errorf("driver: type-checking %s: %v", t.ImportPath, err)
	}
	return &Package{ImportPath: t.ImportPath, Path: base, Fset: fset, Files: files, Types: pkg, Info: info}, nil
}

// CheckFiles type-checks parsed files as package path, resolving each
// import through importMap (may be nil) and then to a gc export data
// file in exports. It is shared by the standalone loader and the
// `go vet -vettool` unitchecker mode, whose .cfg hands us the same two
// maps.
func CheckFiles(fset *token.FileSet, path string, files []*ast.File, importMap, exports map[string]string) (*types.Package, *types.Info, error) {
	lookup := func(p string) (io.ReadCloser, error) {
		if m, ok := importMap[p]; ok {
			p = m
		}
		e, ok := exports[p]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", p)
		}
		return os.Open(e)
	}
	var firstErr error
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	pkg, err := conf.Check(path, fset, files, info)
	if err == nil {
		err = firstErr
	}
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

// Run applies every analyzer to every package and returns the
// surviving findings, sorted by position. //lint:ignore directives are
// honored (and validated) here, in one place, so every analyzer gets
// the same suppression semantics for free.
func Run(pkgs []*Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, pkg := range pkgs {
		ignores, bad := ignoreDirectives(pkg)
		findings = append(findings, bad...)
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			name := a.Name
			pass.Report = func(d analysis.Diagnostic) {
				pos := pkg.Fset.Position(d.Pos)
				if ignores.suppresses(name, pos) {
					return
				}
				findings = append(findings, Finding{Pos: pos, Analyzer: name, Message: d.Message})
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("driver: %s on %s: %v", a.Name, pkg.ImportPath, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Message < b.Message
	})
	return findings, nil
}

// ignoreKey addresses one source line of one file.
type ignoreKey struct {
	file string
	line int
}

// ignoreSet maps lines to the analyzer names ignored there.
type ignoreSet map[ignoreKey][]string

// suppresses reports whether a finding by analyzer name at pos is
// suppressed by a directive on its line or the line above.
func (s ignoreSet) suppresses(name string, pos token.Position) bool {
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, n := range s[ignoreKey{pos.Filename, line}] {
			if n == name {
				return true
			}
		}
	}
	return false
}

// ignoreDirectives scans a package's comments for //lint:ignore
// directives, returning the suppression set and a finding for each
// malformed directive (no analyzer list, or no justification).
func ignoreDirectives(pkg *Package) (ignoreSet, []Finding) {
	set := make(ignoreSet)
	var bad []Finding
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) < 2 {
					bad = append(bad, Finding{
						Pos:      pos,
						Analyzer: "paqlint",
						Message:  "malformed //lint:ignore directive: want //lint:ignore <analyzer>[,...] <justification>",
					})
					continue
				}
				key := ignoreKey{pos.Filename, pos.Line}
				set[key] = append(set[key], strings.Split(fields[0], ",")...)
			}
		}
	}
	return set, bad
}
