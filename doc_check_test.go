package snd

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
