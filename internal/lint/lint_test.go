// Package lint checks the invariants docs/INVARIANTS.md catalogues. It is
// test-only: `go test ./internal/lint/` parses every Go file of the
// module and runs seven rule instances over it, and a table test proves
// on fixtures under testdata/ that each one still fires. A rule reads one
// file's syntax and resolves names through that file's imports, so
// nothing is built or type-checked.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// file is one parsed source file and what the rules ask of it.
type file struct {
	fset    *token.FileSet
	syntax  *ast.File
	pkg     string            // import path, from the directory
	test    bool              // a _test.go file
	imports map[string]string // local name → import path
}

// parse reads every .go file under root, skipping testdata and
// dot-directories. A file's import path is prefix plus its directory
// relative to root, and findings name it relative to root.
func parse(root, prefix string) ([]*file, error) {
	fset := token.NewFileSet()
	var files []*file
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		syntax, err := parser.ParseFile(fset, filepath.ToSlash(rel), src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		f := &file{fset: fset, syntax: syntax, pkg: path.Join(prefix, filepath.ToSlash(filepath.Dir(rel))),
			test: strings.HasSuffix(p, "_test.go"), imports: map[string]string{}}
		for _, imp := range syntax.Imports {
			target, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(target)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			f.imports[name] = target
		}
		files = append(files, f)
		return nil
	})
	return files, err
}

// at renders a finding as file:line: message.
func (f *file) at(pos token.Pos, format string, args ...any) string {
	p := f.fset.Position(pos)
	return fmt.Sprintf("%s:%d: ", p.Filename, p.Line) + fmt.Sprintf(format, args...)
}

// qualified renders e as "<import path>.<name>" when it selects a name
// from one of the file's imports, and "" otherwise.
func (f *file) qualified(e ast.Expr) string {
	if s, ok := e.(*ast.SelectorExpr); ok {
		if x, ok := s.X.(*ast.Ident); ok && f.imports[x.Name] != "" {
			return f.imports[x.Name] + "." + s.Sel.Name
		}
	}
	return ""
}

// TestTreeClean is the merge gate: every rule instance over every file
// of the module reports nothing.
func TestTreeClean(t *testing.T) {
	files, err := parse("../..", module)
	if err != nil {
		t.Fatal(err)
	}
	var findings []string
	for _, check := range checks(files) {
		for _, f := range files {
			findings = append(findings, check(f)...)
		}
	}
	slices.Sort(findings)
	for _, finding := range findings {
		t.Error(finding)
	}
}

// quoted matches one regexp of a want comment, "..." or `...`.
var quoted = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// TestFixtures runs each rule instance over testdata/<name>, whose
// directories stand in for the module's import paths. Every finding
// must match a `// want "regexp"` on its line and every want must be
// matched.
func TestFixtures(t *testing.T) {
	for name := range checks(nil) {
		t.Run(name, func(t *testing.T) {
			files, err := parse(filepath.Join("testdata", name), module)
			if err != nil {
				t.Fatal(err)
			}
			wants := map[string][]*regexp.Regexp{}
			for _, f := range files {
				for _, cg := range f.syntax.Comments {
					for _, c := range cg.List {
						_, rest, ok := strings.Cut(c.Text, "// want ")
						if !ok {
							continue
						}
						p := f.fset.Position(c.Pos())
						for _, q := range quoted.FindAllString(rest, -1) {
							pat, err := strconv.Unquote(q)
							if err != nil {
								t.Fatalf("%s:%d: %v", p.Filename, p.Line, err)
							}
							key := fmt.Sprintf("%s:%d", p.Filename, p.Line)
							wants[key] = append(wants[key], regexp.MustCompile(pat))
						}
					}
				}
			}
			check := checks(files)[name]
			for _, f := range files {
				for _, finding := range check(f) {
					loc, msg, _ := strings.Cut(finding, ": ")
					i := slices.IndexFunc(wants[loc], func(re *regexp.Regexp) bool { return re.MatchString(msg) })
					if i < 0 {
						t.Errorf("unexpected finding %s", finding)
						continue
					}
					wants[loc] = slices.Delete(wants[loc], i, i+1)
				}
			}
			for loc, res := range wants {
				for _, re := range res {
					t.Errorf("%s: no finding matched want %q", loc, re)
				}
			}
		})
	}
}

// classify checks that every internal/ directory is in exactly one of
// listed and documented, and that every listed one still exists.
func classify(t *testing.T, listName string, listed []string, documented map[string]string) {
	ents, err := os.ReadDir("../../internal")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk []string
	for _, e := range ents {
		if e.IsDir() {
			onDisk = append(onDisk, e.Name())
		}
	}
	for _, name := range listed {
		if !slices.Contains(onDisk, name) {
			t.Errorf("%s names internal/%s, which no longer exists", listName, name)
		}
	}
	for _, name := range onDisk {
		_, doc := documented[name]
		switch inList := slices.Contains(listed, name); {
		case inList && doc:
			t.Errorf("internal/%s is both in %s and documented as exempt; pick one", name, listName)
		case !inList && !doc:
			t.Errorf("internal/%s is unclassified: add it to %s or document the exemption in rules_test.go", name, listName)
		}
	}
}

// TestBoundaryConfigTracksTree: every internal package is either
// forbidden to consumers or explicitly classified data-only.
func TestBoundaryConfigTracksTree(t *testing.T) {
	classify(t, "sdkForbidden", sdkForbidden, dataOnly)
}

// TestNoPanicConfigTracksTree gives the no-panic contract the same
// guarantee: every internal package is bound or documented exempt.
func TestNoPanicConfigTracksTree(t *testing.T) {
	classify(t, "noPanic", noPanic, panicAllowed)
}
