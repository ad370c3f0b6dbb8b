package gpustream

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestPublicAPISurface pins the package's exported surface to a file: every
// exported top-level identifier and every exported method of an exported
// type, with its signature, read from the non-test sources with go/parser
// and compared against testdata/api.golden. A refactor that claims "no
// signature changed" is checked by the diff of that file, not by memory.
// Regenerate with `go test -run TestPublicAPISurface -update`.
func TestPublicAPISurface(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg := pkgs["gpustream"]
	if pkg == nil {
		t.Fatalf("package gpustream not found among %d parsed packages", len(pkgs))
	}
	var entries []string
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			entries = append(entries, apiEntries(decl)...)
		}
	}
	sort.Strings(entries)
	got := strings.Join(entries, "\n") + "\n"

	path := filepath.Join("testdata", "api.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with `go test -run TestPublicAPISurface -update`): %v", err)
	}
	if got != string(want) {
		t.Fatalf("public API surface differs from %s (regenerate with -update if intended):\n%s", path, lineDiff(string(want), got))
	}
}

// apiEntries renders the exported identifiers one declaration introduces,
// one line each.
func apiEntries(decl ast.Decl) []string {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			return nil
		}
		recv := ""
		if d.Recv != nil {
			rt := d.Recv.List[0].Type
			if !ast.IsExported(receiverName(rt)) {
				return nil
			}
			recv = "(" + types.ExprString(rt) + ") "
		}
		sig := strings.TrimPrefix(types.ExprString(d.Type), "func")
		return []string{"func " + recv + d.Name.Name + typeParams(d.Type.TypeParams) + sig}
	case *ast.GenDecl:
		var out []string
		var iotaType ast.Expr // an untyped, valueless const repeats the spec above it
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				eq := " "
				if s.Assign.IsValid() {
					eq = " = "
				}
				out = append(out, "type "+s.Name.Name+typeParams(s.TypeParams)+eq+typeBody(s.Type))
			case *ast.ValueSpec:
				if s.Type != nil || len(s.Values) > 0 {
					iotaType = s.Type
				}
				for _, name := range s.Names {
					if !name.IsExported() {
						continue
					}
					line := d.Tok.String() + " " + name.Name
					if iotaType != nil {
						line += " " + types.ExprString(iotaType)
					}
					out = append(out, line)
				}
			}
		}
		return out
	}
	return nil
}

// receiverName strips the pointer and type arguments off a receiver type.
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// typeParams renders a type-parameter list, empty for a non-generic
// declaration.
func typeParams(fl *ast.FieldList) string {
	if fl == nil || len(fl.List) == 0 {
		return ""
	}
	parts := make([]string, len(fl.List))
	for i, f := range fl.List {
		names := make([]string, len(f.Names))
		for j, n := range f.Names {
			names[j] = n.Name
		}
		parts[i] = strings.Join(names, ", ") + " " + types.ExprString(f.Type)
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// typeBody renders a declared type. A struct lists its exported fields only
// (with tags: they are wire surface); everything else prints as written.
func typeBody(e ast.Expr) string {
	st, ok := e.(*ast.StructType)
	if !ok {
		return types.ExprString(e)
	}
	var fields []string
	for _, f := range st.Fields.List {
		typ := types.ExprString(f.Type)
		tag := ""
		if f.Tag != nil {
			tag = " " + f.Tag.Value
		}
		if len(f.Names) == 0 {
			if ast.IsExported(receiverName(f.Type)) {
				fields = append(fields, typ+tag)
			}
			continue
		}
		for _, n := range f.Names {
			if n.IsExported() {
				fields = append(fields, n.Name+" "+typ+tag)
			}
		}
	}
	return "struct{" + strings.Join(fields, "; ") + "}"
}

// lineDiff lists the lines only one side has, golden first.
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := make(map[string]bool)
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if !g[l] {
			b.WriteString("- " + l + "\n")
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !w[l] {
			b.WriteString("+ " + l + "\n")
		}
	}
	return b.String()
}
