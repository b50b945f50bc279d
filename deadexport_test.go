package demystbert

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// deadExportAllowlist names the exports of internal/ that no non-test file
// of the module references by identifier, yet must stay: key → why. An
// entry that stops being needed fails TestNoDeadExports as well, so the
// list can only shrink with the code.
var deadExportAllowlist = map[string]string{
	"obs.Bucket.MarshalJSON":   "json.Marshaler: encoding/json calls it to write a histogram snapshot's +Inf bound",
	"obs.Bucket.UnmarshalJSON": "json.Unmarshaler: encoding/json calls it to read a histogram snapshot back",
	"nn.Param.Gen":             "read by optim's tests: a step must bump the pack generation",
	"optim.LAMB.HasState":      "read by distnet's tests: a rank holds m and v of the tensors it owns only",
	"tensor.Tensor.Clone":      "read by nn's and distnet's tests to snapshot tensors",
	"dist.PredictDP":           "the modeled data-parallel step that the benchmark's DP phase is to call (ROADMAP item 19)",
}

// deletedExports names exports that were deleted because something else
// does their work: key → what does it now. Declaring one again under
// internal/ fails TestNoDeadExports, so a second implementation cannot
// grow back beside the one that replaced it.
var deletedExports = map[string]string{
	"kernels.Pool.SplitHeads":                "kernels.GEMMPath.AttentionForward/AttentionBackward read a head's Q, K, V and dOut columns in place",
	"kernels.Pool.MergeHeads":                "the attention region writes each head's context and gradients into its columns in place",
	"kernels.Pool.ScaleMaskSoftmaxAttention": "the attention region's row body, scaleMaskSoftmaxRow",
	"kernels.Pool.SoftmaxGrad":               "the attention backward's row body, softmaxGradRows",
	"kernels.GEMMPath.AttentionRagged":       "kernels.GEMMPath.AttentionForward with no mask, dropout or saved probabilities",
}

// TestNoDeadExports fails when an exported top-level func, method, type,
// const or var declared in a non-test file under internal/ has no
// identifier reference in any non-test Go file of the module outside its
// own declaration (assembly counts through its ·Name symbols), or when an
// allowlist entry is no longer needed, or when a deletedExports name is
// declared again. The check is by name: a reference
// to any declaration of the same name counts, so it can miss a dead
// export but never flags a live one. Struct fields are out of scope: a
// name like Name is too common to tell anything by name.
func TestNoDeadExports(t *testing.T) {
	type decl struct {
		key, name  string
		pos        token.Position
		start, end token.Pos
	}
	fset := token.NewFileSet()
	var decls []decl
	// refs maps an identifier name to every use of it that declares
	// nothing; an assembly ·Name symbol counts as a use at NoPos, which
	// lies inside no declaration.
	refs := map[string][]token.Pos{}
	asmSym := regexp.MustCompile(`·([A-Za-z_][A-Za-z0-9_]*)`)

	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case strings.HasSuffix(path, "_test.go"):
			return nil
		case strings.HasSuffix(path, ".s"):
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range asmSym.FindAllSubmatch(src, -1) {
				refs[string(m[1])] = append(refs[string(m[1])], token.NoPos)
			}
			return nil
		case !strings.HasSuffix(path, ".go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declaring := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declaring[n.Name] = true
			case *ast.TypeSpec:
				declaring[n.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					declaring[id] = true
				}
			case *ast.Field:
				for _, id := range n.Names {
					declaring[id] = true
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declaring[id] {
				refs[id.Name] = append(refs[id.Name], id.Pos())
			}
			return true
		})
		if !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			return nil
		}
		pkg := f.Name.Name
		add := func(key string, id *ast.Ident, node ast.Node) {
			if id.IsExported() {
				decls = append(decls, decl{pkg + "." + key, id.Name, fset.Position(id.Pos()), node.Pos(), node.End()})
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				key := d.Name.Name
				if d.Recv != nil {
					key = recvTypeName(d.Recv.List[0].Type) + "." + key
				}
				add(key, d.Name, d)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name.Name, s.Name, s)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id.Name, id, s)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	allowed := map[string]bool{}
	var dead []string
	for _, d := range decls {
		if why, ok := deletedExports[d.key]; ok {
			t.Errorf("%s (%s) was deleted: %s", d.key, d.pos, why)
		}
		live := false
		for _, p := range refs[d.name] {
			if p == token.NoPos || p < d.start || p >= d.end {
				live = true
				break
			}
		}
		switch _, ok := deadExportAllowlist[d.key]; {
		case ok && !live:
			allowed[d.key] = true
		case ok:
			t.Errorf("allowlist entry %s is no longer needed: a non-test file references it; delete the entry", d.key)
			allowed[d.key] = true
		case !live:
			dead = append(dead, d.key+" ("+d.pos.String()+")")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported %s has no reference in any non-test file: delete it, or give it a caller", d)
	}
	for key := range deadExportAllowlist {
		if !allowed[key] {
			t.Errorf("allowlist entry %s names no declaration under internal/; delete the entry", key)
		}
	}
}

// recvTypeName is the base type name of a method receiver: T for T, *T,
// T[P] and *T[P].
func recvTypeName(e ast.Expr) string {
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
			return "?"
		}
	}
}
