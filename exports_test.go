//go:build !race

// The export scan is static analysis of the source: the race detector has
// nothing to watch in it, and it slows the type-checking of the standard
// library from about 1.7 s to 11 s on a 2-vCPU host.

package plugvolt_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// supportPackages are the internal packages that exist to serve tests:
// their exported API is called from _test.go files only.
var supportPackages = map[string]string{
	"clitest": "test support: drives each CLI's run function from its main_test.go",
	"golden":  "test support: the figure conformance suite compares against artifacts/",
}

// exportAllowlist names the exported internal/ declarations that no non-test
// file references but that stay, each with its reason: model code that only
// tests drive, named with the test and the artifact row it backs. Keys are
// the package path below internal/, then the name: "sgx.Stepper.ZeroStep".
var exportAllowlist = map[string]string{
	"defense.Minefield":                 "E2 minefield row (artifacts/e2_defense_matrix.txt): the deflection defense TestMinefieldDetectsNaiveUndervolting and TestMinefieldBypassedBySingleStepping deploy",
	"defense.Minefield.Instrument":      "E2 minefield row: wraps the victim in traps in TestMinefieldDetectsNaiveUndervolting and TestMinefieldBypassedBySingleStepping",
	"defense.TrappedProgram.NextIsTrap": "E2 minefield row, survives stepping = no: TestMinefieldBypassedBySingleStepping's adversary steers by it",
	"sgx.Enclave.Run":                   "E2 minefield row, prevents faults = yes: TestMinefieldDetectsNaiveUndervolting runs the trapped program in an enclave",
	"sgx.NewStepper":                    "E2 survives-stepping column: TestMinefieldBypassedBySingleStepping and TestPollingSurvivesSingleStepping single-step the enclave",
	"sgx.Stepper.Run":                   "E2 survives-stepping column: the single-stepping loop of TestMinefieldBypassedBySingleStepping and TestPollingSurvivesSingleStepping",
	"sgx.Stepper.ZeroStep":              "E2 survives-stepping column: TestZeroSteppingGivesUnboundedRecoveryWindow's zero-stepping dwell",
	"sgx.Enclave.Attest":                "E2 polling row, the paper's guard-module-loaded report flag: TestPollingDefenseInstallAndAttestation attests before and after rmmod",
	"sgx.VerifyPolicy":                  "E2 polling row, the paper's guard-module-loaded report flag: TestPollingDefenseInstallAndAttestation's client policy",
	"sgx.VerifyPolicy.Verify":           "E2 polling row, the paper's guard-module-loaded report flag: TestPollingDefenseInstallAndAttestation rejects the machine after rmmod",
	"pstate.Manager.Start":              "E2 polling row, benign DVFS OK = yes under a governor: TestOndemandDrivesGuardedCometLake starts the ondemand loop",
}

// TestInternalExportsHaveNonTestUsers keeps dead API out of internal/: every
// exported func, method, type, var and const declared in a non-test file
// under internal/ must be referenced by some non-test file of the module
// (cmd/ and the benchmark module count) outside its own declaration. A
// method that implements an interface counts as referenced, since calls
// through the interface do not name it; an interface's own methods are
// part of its type and are checked with it.
func TestInternalExportsHaveNonTestUsers(t *testing.T) {
	l, err := loadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	stillUnused := map[string]bool{}
	for _, d := range l.unusedExports() {
		stillUnused[d.key()] = true
		if _, ok := supportPackages[d.pkg]; ok {
			continue
		}
		if _, ok := exportAllowlist[d.key()]; ok {
			continue
		}
		t.Errorf("%s: %s has no non-test reference in the module; delete it, move it into a _test.go file, or allowlist it with a reason",
			d.pos, d.key())
	}
	for key, reason := range exportAllowlist {
		if reason == "" {
			t.Errorf("allowlist entry %s gives no reason", key)
		}
		if !stillUnused[key] {
			t.Errorf("allowlist entry %s is referenced now or no longer declared; remove the entry", key)
		}
	}
}

// moduleLoader type-checks every non-test package of the module, the
// benchmark module included, from source. Standard-library imports go
// through the source importer.
type moduleLoader struct {
	fset *token.FileSet
	std  types.Importer
	dirs map[string]string // import path -> directory
	pkgs map[string]*checkedPkg
}

type checkedPkg struct {
	path  string
	types *types.Package
	files []*ast.File
	info  *types.Info
}

func loadModule(root string) (*moduleLoader, error) {
	fset := token.NewFileSet()
	l := &moduleLoader{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		dirs: map[string]string{},
		pkgs: map[string]*checkedPkg{},
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if len(goFiles(path)) > 0 {
			rel := filepath.ToSlash(path)
			if rel == "." {
				l.dirs["plugvolt"] = path
			} else {
				l.dirs["plugvolt/"+rel] = path
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.Import(p); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// goFiles lists a directory's non-test Go files.
func goFiles(dir string) []string {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var files []string
	for _, e := range ents {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			files = append(files, filepath.Join(dir, n))
		}
	}
	return files
}

// Import implements types.Importer: module packages are checked here,
// everything else comes from the standard library's source.
func (l *moduleLoader) Import(path string) (*types.Package, error) {
	dir, ok := l.dirs[path]
	if !ok {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		return p.types, nil
	}
	var files []*ast.File
	for _, f := range goFiles(dir) {
		af, err := parser.ParseFile(l.fset, f, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, af)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: l}
	tp, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = &checkedPkg{path: path, types: tp, files: files, info: info}
	return tp, nil
}

// exportedDecl is one exported declaration under internal/.
type exportedDecl struct {
	pkg  string // path below internal/
	recv string // receiver type name, for methods
	name string
	pos  token.Position
	// own are the source ranges that belong to the declaration itself: a
	// reference from inside them (recursion, a method's receiver naming its
	// type) does not count as a use.
	own [][2]token.Pos
}

func (d *exportedDecl) key() string {
	if d.recv != "" {
		return d.pkg + "." + d.recv + "." + d.name
	}
	return d.pkg + "." + d.name
}

func (d *exportedDecl) owns(p token.Pos) bool {
	for _, r := range d.own {
		if r[0] <= p && p < r[1] {
			return true
		}
	}
	return false
}

// unusedExports returns the exported internal/ declarations that no
// non-test file references outside the declaration itself, sorted by
// position.
func (l *moduleLoader) unusedExports() []*exportedDecl {
	decls := map[types.Object]*exportedDecl{}
	add := func(p *checkedPkg, recv string, id *ast.Ident, from, to token.Pos) {
		if obj := p.info.Defs[id]; obj != nil && id.IsExported() {
			decls[obj] = &exportedDecl{
				pkg: strings.TrimPrefix(p.path, "plugvolt/internal/"), recv: recv, name: id.Name,
				pos: l.fset.Position(id.Pos()), own: [][2]token.Pos{{from, to}},
			}
		}
	}
	type method struct {
		p  *checkedPkg
		fd *ast.FuncDecl
	}
	var methods []method
	for _, p := range l.pkgs {
		if !strings.HasPrefix(p.path, "plugvolt/internal/") {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					recv := ""
					if decl.Recv != nil {
						recv = recvName(decl.Recv.List[0].Type)
						methods = append(methods, method{p, decl})
					}
					add(p, recv, decl.Name, decl.Pos(), decl.End())
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							add(p, "", spec.Name, spec.Pos(), spec.End())
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								add(p, "", id, spec.Pos(), spec.End())
							}
						}
					}
				}
			}
		}
	}
	// A method's receiver names its type without using it.
	for _, m := range methods {
		if fn, ok := m.p.info.Defs[m.fd.Name].(*types.Func); ok {
			if d := decls[recvNamed(fn).Obj()]; d != nil {
				d.own = append(d.own, [2]token.Pos{m.fd.Recv.Pos(), m.fd.Recv.End()})
			}
		}
	}

	used := map[types.Object]bool{}
	for _, p := range l.pkgs {
		for id, obj := range p.info.Uses {
			obj = origin(obj)
			if d := decls[obj]; d != nil && !d.owns(id.Pos()) {
				used[obj] = true
			}
		}
	}

	ifaces := l.interfaces()
	var out []*exportedDecl
	for obj, d := range decls {
		if used[obj] {
			continue
		}
		if fn, ok := obj.(*types.Func); ok && implementsInterface(fn, ifaces) {
			continue
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].pos, out[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return out
}

// interfaces collects the non-generic interface types declared at package
// scope in the module and in the standard-library packages it imports, the
// predeclared error, and the unwrapping protocol errors.Is and errors.As
// call through an anonymous interface.
func (l *moduleLoader) interfaces() []*types.Interface {
	seen := map[*types.Package]bool{}
	var out []*types.Interface
	scan := func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		for _, name := range tp.Scope().Names() {
			tn, ok := tp.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
	}
	for _, p := range l.pkgs {
		scan(p.types)
		for _, imp := range p.types.Imports() {
			scan(imp)
		}
	}
	errType := types.Universe.Lookup("error").Type()
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap",
		types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false))
	out = append(out, errType.Underlying().(*types.Interface),
		types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete())
	return out
}

// implementsInterface reports whether fn is a method of a concrete named
// type that implements some interface with a method of fn's name.
func implementsInterface(fn *types.Func, ifaces []*types.Interface) bool {
	named := recvNamed(fn)
	if named == nil || named.TypeParams().Len() > 0 {
		return false
	}
	if types.IsInterface(named) {
		return false
	}
	for _, it := range ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() {
				has = true
				break
			}
		}
		if has && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
			return true
		}
	}
	return false
}

// recvNamed returns the named type a method is declared on, or nil.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	if named != nil {
		named = named.Origin()
	}
	return named
}

// recvName is the bare type name of a receiver expression.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// origin maps an instantiated generic function, method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
