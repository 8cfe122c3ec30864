package snd

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestExportedIdentifiersDocumented enforces the godoc contract on the
// public surface: every exported top-level identifier and every
// exported method on an exported type in package snd must carry a doc
// comment. Constants and variables inside a documented group
// declaration inherit the group's comment. This is the CI missing-doc
// gate; it runs under plain `go test`.
func TestExportedIdentifiersDocumented(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["snd"]
	if !ok {
		t.Fatal("package snd not found")
	}
	missing := func(pos token.Pos, what, name string) {
		t.Errorf("%s: exported %s %s has no doc comment", fset.Position(pos), what, name)
	}
	for fname, file := range pkg.Files {
		if strings.HasSuffix(fname, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv != nil && !exportedRecv(d.Recv) {
					continue
				}
				if d.Doc == nil {
					kind := "function"
					if d.Recv != nil {
						kind = "method"
					}
					missing(d.Pos(), kind, d.Name.Name)
				}
			case *ast.GenDecl:
				groupDoc := d.Doc != nil
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && s.Doc == nil && !groupDoc {
							missing(s.Pos(), "type", s.Name.Name)
						}
					case *ast.ValueSpec:
						if s.Doc != nil || s.Comment != nil || groupDoc {
							continue
						}
						for _, name := range s.Names {
							if name.IsExported() {
								missing(s.Pos(), "const/var", name.Name)
							}
						}
					}
				}
			}
		}
	}
}

// exportedRecv reports whether a method receiver's base type name is
// exported (methods on unexported types are not part of the surface).
func exportedRecv(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	typ := recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr:
			typ = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

// TestCommentCitationsExist fails when a Go comment anywhere in the
// repository cites a Markdown file that does not exist. A citation
// resolves against the repository root or the citing file's directory;
// hidden directories (build caches) are skipped.
func TestCommentCitationsExist(t *testing.T) {
	cite := regexp.MustCompile(`[\w./-]+\.md\b`)
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, group := range file.Comments {
			for _, c := range group.List {
				for _, ref := range cite.FindAllString(c.Text, -1) {
					if strings.Contains(ref, "//") {
						continue // a URL, not a repository path
					}
					if !exists(ref) && !exists(filepath.Join(filepath.Dir(path), ref)) {
						t.Errorf("%s: comment cites %s, which does not exist", fset.Position(c.Pos()), ref)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// TestSndbenchExperimentsExist fails when a Go comment, README.md,
// docs/*.md, the .claude/skills notes or the CI workflow names a
// `sndbench -exp <id>` that cmd/sndbench does not register. CHANGES.md
// is history and perfbench/ belongs to the benchmark, so both are left
// out.
func TestSndbenchExperimentsExist(t *testing.T) {
	registered := sndbenchExperiments(t)
	ref := regexp.MustCompile(`-exp[ =]([\w|,.]+)`)
	scanDocs(t, func(where, _, text string) {
		for _, m := range ref.FindAllStringSubmatch(text, -1) {
			for _, id := range strings.FieldsFunc(m[1], func(r rune) bool { return r == '|' || r == ',' || r == '.' }) {
				if id != "all" && !registered[id] {
					t.Errorf("%s: names sndbench -exp %s, which cmd/sndbench does not register", where, id)
				}
			}
		}
	})
}

// TestDocsCiteExistingFields fails when a Go comment, README.md,
// docs/*.md, the .claude/skills notes or the CI workflow cites
// Options.<name>, EngineConfig.<name>, EMDStarConfig.<name> or
// Network.<name> for a field or method the type does not have. The
// types are core.Options, core.EngineConfig and emd.StarConfig, which
// package snd re-exports, and snd.Network; a Go comment in a package
// that declares its own type of the cited name (wal.Options,
// flow.Network) is checked against that type instead.
func TestDocsCiteExistingFields(t *testing.T) {
	owners := typeMembers(t, "internal/core/options.go", "internal/core/engine.go", "internal/emd/star.go", "network.go")
	owners["EMDStarConfig"] = owners["StarConfig"]
	for _, name := range []string{"Options", "EngineConfig", "EMDStarConfig", "Network"} {
		if len(owners[name]) == 0 {
			t.Fatalf("no fields found for %s", name)
		}
	}
	local := map[string]map[string]map[string]bool{} // Go package dir -> its own types
	cite := regexp.MustCompile(`\b(Options|EngineConfig|EMDStarConfig|Network)\.(\w+)`)
	scanDocs(t, func(where, goDir, text string) {
		for _, m := range cite.FindAllStringSubmatch(text, -1) {
			known := owners[m[1]]
			if goDir != "" {
				types, ok := local[goDir]
				if !ok {
					files, err := filepath.Glob(filepath.Join(goDir, "*.go"))
					if err != nil {
						t.Fatal(err)
					}
					types = typeMembers(t, files...)
					local[goDir] = types
				}
				if own, ok := types[m[1]]; ok {
					known = own
				}
			}
			if !known[m[2]] {
				t.Errorf("%s: cites %s.%s, which %s does not have", where, m[1], m[2], m[1])
			}
		}
	})
}

// typeMembers parses the named Go files and returns, per struct type
// they declare, the names of its fields and of the methods declared on
// it in those files.
func typeMembers(t *testing.T, paths ...string) map[string]map[string]bool {
	t.Helper()
	members := map[string]map[string]bool{}
	add := func(typ, name string) {
		if members[typ] == nil {
			members[typ] = map[string]bool{}
		}
		members[typ][name] = true
	}
	fset := token.NewFileSet()
	for _, path := range paths {
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					if members[ts.Name.Name] == nil {
						members[ts.Name.Name] = map[string]bool{}
					}
					for _, f := range st.Fields.List {
						for _, name := range f.Names {
							add(ts.Name.Name, name.Name)
						}
					}
				}
			case *ast.FuncDecl:
				if d.Recv == nil || len(d.Recv.List) == 0 {
					continue
				}
				typ := d.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if id, ok := typ.(*ast.Ident); ok {
					add(id.Name, d.Name.Name)
				}
			}
		}
	}
	return members
}

// scanDocs calls visit on every line of README.md, docs/*.md, the
// .claude/skills notes and the CI workflow, and on every Go comment in
// the repository outside perfbench/ (which belongs to the benchmark)
// and hidden directories. where locates the text; goDir is the Go
// file's directory, or "" for a line of a non-Go file.
func scanDocs(t *testing.T, visit func(where, goDir, text string)) {
	t.Helper()
	visitLines := func(path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			visit(fmt.Sprintf("%s:%d", path, i+1), "", line)
		}
	}

	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append(docs, "README.md", ".github/workflows/ci.yml") {
		visitLines(path)
	}
	err = filepath.WalkDir(".claude/skills", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			visitLines(path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || path == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, group := range file.Comments {
			for _, c := range group.List {
				visit(fset.Position(c.Pos()).String(), filepath.Dir(path), c.Text)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// sndbenchExperiments returns the experiment ids cmd/sndbench/main.go
// registers: the keys of its runners map.
func sndbenchExperiments(t *testing.T) map[string]bool {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "cmd/sndbench/main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		if name, ok := as.Lhs[0].(*ast.Ident); !ok || name.Name != "runners" {
			return true
		}
		lit, ok := as.Rhs[0].(*ast.CompositeLit)
		if !ok {
			return true
		}
		for _, elt := range lit.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if key, ok := kv.Key.(*ast.BasicLit); ok && key.Kind == token.STRING {
					id, err := strconv.Unquote(key.Value)
					if err != nil {
						t.Fatal(err)
					}
					ids[id] = true
				}
			}
		}
		return false
	})
	if len(ids) == 0 {
		t.Fatal("cmd/sndbench/main.go: no runners map found")
	}
	return ids
}
