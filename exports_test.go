//go:build !race

// The static scans are analysis of the source and of the linked binaries:
// the race detector has nothing to watch in them, and it slows the
// type-checking of the standard library from about 1.7 s to 11 s on a
// 2-vCPU host. `make reach` runs them; CI runs that target without -race.

package plugvolt_test

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// supportPackages are the internal packages that exist to serve tests:
// their exported API is called from _test.go files only, and no binary
// links them. Every scan skips them.
var supportPackages = map[string]string{
	"clitest": "test support: drives each CLI's run function from its main_test.go",
	"golden":  "test support: the figure conformance suite compares against artifacts/",
}

// reachAllowlist names what the three scans report but stays, each with
// its reason: model code that only tests drive, named with the test, the
// artifact row or the ROADMAP item it backs. One entry covers a name in
// every scan that reports it. Keys are the package path below internal/
// ("plugvolt" for the root package), then the declaration: "sgx.NewStepper"
// for a func, "sgx.Stepper.Run" for a method, "sgx.VerifyPolicy.Verify"
// also for an interface method, "sgx.VerifyPolicy.RequireGuardModule" for
// a field.
var reachAllowlist = map[string]string{
	// E2's minefield row. ROADMAP item 13 computes the E2 cells from these
	// scenarios; until then only tests run them.
	"defense.Minefield":                 "E2 minefield row (artifacts/e2_defense_matrix.txt): the deflection defense TestMinefieldDetectsNaiveUndervolting and TestMinefieldBypassedBySingleStepping deploy; ROADMAP item 13",
	"defense.Minefield.Density":         "E2 minefield row: TestMinefieldDetectsNaiveUndervolting sets the trap density; ROADMAP item 13",
	"defense.Minefield.Instrument":      "E2 minefield row: wraps the victim in traps in TestMinefieldDetectsNaiveUndervolting and TestMinefieldBypassedBySingleStepping; ROADMAP item 13",
	"defense.TrappedProgram.Step":       "E2 minefield row: the trapped program TestMinefieldDetectsNaiveUndervolting runs in an enclave; ROADMAP item 13",
	"defense.TrappedProgram.NextIsTrap": "E2 minefield row, survives stepping = no: TestMinefieldBypassedBySingleStepping's adversary steers by it; ROADMAP item 13",
	"sgx.Enclave.Run":                   "E2 minefield row, prevents faults = yes: TestMinefieldDetectsNaiveUndervolting runs the trapped program in an enclave; ROADMAP item 13",
	"victim.IMulLoop.Step":              "E2 survives-stepping column: the steppable victim of TestMinefieldBypassedBySingleStepping and TestPollingSurvivesSingleStepping; ROADMAP item 13",
	"victim.IMulLoop.operands":          "E2 survives-stepping column: IMulLoop.Step's operand stream (TestPollingSurvivesSingleStepping); ROADMAP item 13",
	// E2's survives-stepping column: the SGX-Step adversary.
	"sgx.NewStepper":       "E2 survives-stepping column: TestMinefieldBypassedBySingleStepping and TestPollingSurvivesSingleStepping single-step the enclave; ROADMAP item 13",
	"sgx.Stepper.Run":      "E2 survives-stepping column: the single-stepping loop of TestMinefieldBypassedBySingleStepping and TestPollingSurvivesSingleStepping; ROADMAP item 13",
	"sgx.Stepper.ZeroStep": "E2 survives-stepping column: TestZeroSteppingGivesUnboundedRecoveryWindow's zero-stepping dwell; ROADMAP item 13",
	// E2's attestation column (the paper's guard-module-loaded report flag).
	"sgx.Enclave.Attest":                      "E2 polling row, the paper's guard-module-loaded report flag: TestPollingDefenseInstallAndAttestation attests before and after rmmod; ROADMAP item 13",
	"sgx.Enclave.MeasurementHex":              "E2 attestation column: the report's MRENCLAVE, which TestMeasurementIsIdentityBound and TestVerifyPolicies pin; ROADMAP item 13",
	"sgx.VerifyPolicy":                        "E2 attestation column: TestPollingDefenseInstallAndAttestation's client policy; ROADMAP item 13",
	"sgx.VerifyPolicy.Verify":                 "E2 attestation column: TestPollingDefenseInstallAndAttestation rejects the machine after rmmod; ROADMAP item 13",
	"sgx.VerifyPolicy.ExpectedMeasurementHex": "E2 attestation column: TestVerifyPolicies pins the enclave measurement; ROADMAP item 13",
	"sgx.VerifyPolicy.RequireOCMDisabled":     "E2 attestation column, SA-00289's policy: TestVerifyPolicies; ROADMAP item 13",
	"sgx.VerifyPolicy.RequireGuardModule":     "E2 attestation column, the paper's policy: TestPollingDefenseInstallAndAttestation and TestVerifyPolicies; ROADMAP item 13",
	// E2's benign-DVFS column and the rmmod flip: no CLI uninstalls a
	// defense or asks whether it lets benign DVFS through.
	"defense.Countermeasure.AllowsBenignDVFS": "E2 benign DVFS OK column: TestBenignUndervoltThroughEachDefense checks each defense's answer against whether a benign undervolt landed through it; ROADMAP item 13",
	"defense.Countermeasure.Uninstall":        "E2 polling row, the paper's guard-module-loaded report flag: TestPollingDefenseInstallAndAttestation rmmods the guard and the attestation flips; TestBenignUndervoltThroughEachDefense uninstalls each defense before the next; ROADMAP item 13",
	"defense.None.Uninstall":                  "E2 none row: TestBenignUndervoltThroughEachDefense uninstalls each defense; ROADMAP item 13",
	"defense.None.AllowsBenignDVFS":           "E2 none row, benign DVFS OK: TestBenignUndervoltThroughEachDefense; ROADMAP item 13",
	"defense.AccessControl.Uninstall":         "E2 access-control row: TestBenignUndervoltThroughEachDefense uninstalls each defense; ROADMAP item 13",
	"defense.AccessControl.AllowsBenignDVFS":  "E2 access-control row, benign DVFS OK = no: TestBenignUndervoltThroughEachDefense; ROADMAP item 13",
	"defense.Polling.Uninstall":               "E2 polling row, the rmmod flip: TestPollingDefenseInstallAndAttestation; ROADMAP item 13",
	"defense.Polling.AllowsBenignDVFS":        "E2 polling row, benign DVFS OK: TestBenignUndervoltThroughEachDefense; ROADMAP item 13",
	"defense.WriteGuard.Uninstall":            "E2 microcode and clamp rows: TestBenignUndervoltThroughEachDefense uninstalls each defense; ROADMAP item 13",
	"defense.WriteGuard.AllowsBenignDVFS":     "E2 microcode and clamp rows, benign DVFS OK: TestBenignUndervoltThroughEachDefense; ROADMAP item 13",
	"msr.File.RemoveWriteHook":                "the Sec. 5 write guard's uninstall: TestMicrocodeWriteIgnore and TestClampMSR uninstall it; ROADMAP item 13",
	// The governor loop: no CLI starts a governor, but ROADMAP item 1's
	// up-transition race needs it.
	"pstate.Manager.Start":        "E2 polling row, benign DVFS OK = yes under a governor: TestOndemandDrivesGuardedCometLake starts the ondemand loop; ROADMAP item 1's up-transition race",
	"pstate.Manager.sample":       "the governors' sampling tick: TestOndemandGovernorTracksLoad; ROADMAP item 1's up-transition race",
	"pstate.Manager.ondemand":     "the ondemand policy: TestOndemandGovernorTracksLoad and TestOndemandDrivesGuardedCometLake; ROADMAP item 1's up-transition race",
	"pstate.Manager.schedutil":    "the schedutil policy: TestSchedutilGovernorTracksUtilization; ROADMAP item 1's up-transition race",
	"pstate.Manager.conservative": "the conservative policy: TestConservativeGovernorStepsGradually; ROADMAP item 1's up-transition race",
	"pstate.clamp01":              "the governors' load clamp: TestOndemandGovernorTracksLoad; ROADMAP item 1's up-transition race",
	// Kept for a named reader.
	"core.GridFromJSON":             "the golden conformance suite decodes the artifacts/ grids with it: TestGoldenFigures",
	"core.GuardConfig.SafeOffsetMV": "the guard's restore to the maximal safe state, which no CLI deploys: TestAblationSafeOffsetPolicy sets it",
	"fleet.Config.Guard":            "the incident tests' weak guard (TestFleetIncidentsCaptured); ROADMAP item 1 decides whether attack fleets record incidents",
	"fleet.Config.FlightWindow":     "flight recording in fleets (TestFleetIncidentsCaptured); ROADMAP item 1 decides whether attack fleets record incidents",
	"flight.Record.C":               "always 0, but the JSON records of every v1 incident bundle carry \"c\": TestBundleRoundTrip round-trips them, and dropping it changes the bundle bytes",
}

// allowlistReason is what an allowlist reason must name: a test, an
// artifact, or the ROADMAP item that will put the code to use.
var allowlistReason = regexp.MustCompile(`\bTest[A-Z]\w*|artifacts/|ROADMAP item \d+`)

// finding is one scan's report of one declaration.
type finding struct {
	key string
	pos token.Position
}

// TestInternalExportsHaveNonTestUsers keeps dead API out of internal/: every
// exported func, method, type, var and const declared in a non-test file
// under internal/ must be referenced by some non-test file of the module
// (cmd/ and the benchmark module count) outside its own declaration. A
// method that implements an interface counts as referenced, since calls
// through the interface do not name it; each method an interface declares
// must then be called through that interface by some non-test file.
func TestInternalExportsHaveNonTestUsers(t *testing.T) {
	checkFindings(t, exportFindings(scanModule(t)),
		"has no non-test reference in the module; delete it, move it into a _test.go file, or allowlist it with a reason")
}

// TestInternalFieldsHaveNonTestWriters keeps test-only configuration out of
// internal/: every exported field of an exported struct declared in a
// non-test file under internal/ must be written by some non-test file of
// either module. A field that only tests set is a knob no CLI can turn.
func TestInternalFieldsHaveNonTestWriters(t *testing.T) {
	checkFindings(t, fieldFindings(scanModule(t)),
		"is written by no non-test file in either module; delete it, or allowlist it with a reason")
}

// TestInternalFuncsAreLinked keeps unreachable code out: every func and
// method declared in a non-test file of the root package or under
// internal/, exported or not, must be in some binary the module builds
// (the CLIs and the benchmark). Code reached only from other unreachable
// code, or only from tests, is in none.
func TestInternalFuncsAreLinked(t *testing.T) {
	syms := linkedSymbols(t)
	checkFindings(t, linkerFindings(scanModule(t), syms),
		"is in no binary of ./cmd/... or the benchmark; delete it, or allowlist it with a reason")
}

// TestReachAllowlist holds the allowlist to the scans: every entry gives a
// reason that names its test, artifact or ROADMAP item, and every entry is
// still reported by some scan.
func TestReachAllowlist(t *testing.T) {
	l := scanModule(t)
	reported := map[string]bool{}
	for _, fs := range [][]finding{exportFindings(l), fieldFindings(l), linkerFindings(l, linkedSymbols(t))} {
		for _, f := range fs {
			reported[f.key] = true
		}
	}
	for _, key := range sortedKeys(reachAllowlist) {
		switch reason := reachAllowlist[key]; {
		case reason == "":
			t.Errorf("allowlist entry %s gives no reason", key)
		case !allowlistReason.MatchString(reason):
			t.Errorf("allowlist entry %s names no test, artifact or ROADMAP item: %q", key, reason)
		}
		if !reported[key] {
			t.Errorf("allowlist entry %s is used now or no longer declared; remove the entry", key)
		}
	}
}

// TestFieldWriteClassifier pins what the field scan counts as a write, on
// snippets type-checked in memory: each write form, and reads that must
// not count.
func TestFieldWriteClassifier(t *testing.T) {
	const decls = `package p

type Inner struct{ X, Y int }

type T struct {
	A, B int
	In   Inner
	P    *Inner
	Arr  [2]int
}

type E struct{ Inner }

type G[V any] struct{ F V }

func use(...any) {}
`
	for _, tc := range []struct {
		name string
		body string
		want string // the written fields, sorted, space-separated
	}{
		{"keyed literal", "use(T{A: 1})", "T.A"},
		{"positional literal", "use(Inner{1, 2})", "Inner.X Inner.Y"},
		{"elided literal", "use([]Inner{{X: 1}})", "Inner.X"},
		{"elided pointer literal", "use([]*Inner{{Y: 1}})", "Inner.Y"},
		{"address of a literal", "use(&Inner{X: 1})", "Inner.X"},
		{"generic literal", "use(G[int]{F: 1})", "G.F"},
		{"assignment", "x.A = 1", "T.A"},
		{"tuple assignment", "x.A, y.B = 1, 2", "T.A T.B"},
		{"op-assignment", "x.B += 2", "T.B"},
		{"increment", "x.A++", "T.A"},
		{"decrement", "y.B--", "T.B"},
		{"selector chain", "x.In.X = 1", "Inner.X T.In"},
		{"chain through a pointer field", "x.P.Y = 1", "Inner.Y T.P"},
		{"chain through an index", "x.Arr[0] = 1", "T.Arr"},
		{"chain through a dereference", "(*x).A = 1", "T.A"},
		{"promoted field", "e.X = 1", "E.Inner Inner.X"},
		{"address of a field", "use(&x.A)", "T.A"},
		{"address of a chain", "use(&x.In.Y)", "Inner.Y T.In"},
		{"plain read", "use(x.A, y.In.X, e.Y, len(x.Arr))", ""},
		{"read into a local", "v := x.B; v++; use(v)", ""},
		{"read on the right of an assignment", "var v int; v = x.P.X; use(v)", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			src := decls + "\nfunc f(x *T, y T, e E) {\n" + tc.body + "\n}\n"
			f, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			info := &types.Info{
				Types:      map[ast.Expr]types.TypeAndValue{},
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			}
			pkg, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info)
			if err != nil {
				t.Fatal(err)
			}
			names := map[*types.Var]string{}
			for _, n := range pkg.Scope().Names() {
				if st, ok := pkg.Scope().Lookup(n).Type().Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						names[st.Field(i)] = n + "." + st.Field(i).Name()
					}
				}
			}
			seen := map[string]bool{}
			fieldWrites([]*ast.File{f}, info, func(v *types.Var) { seen[names[v.Origin()]] = true })
			var got []string
			for n := range seen {
				got = append(got, n)
			}
			sort.Strings(got)
			if g := strings.Join(got, " "); g != tc.want {
				t.Errorf("%s: writes %q, want %q", tc.body, g, tc.want)
			}
		})
	}
}

// checkFindings fails each finding that no allowlist entry covers.
func checkFindings(t *testing.T, fs []finding, what string) {
	t.Helper()
	for _, f := range fs {
		if _, ok := reachAllowlist[f.key]; !ok {
			t.Errorf("%s: %s %s", f.pos, f.key, what)
		}
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// The module is type-checked and the binaries linked once per test binary;
// each scan reads the shared result.
var (
	moduleOnce sync.Once
	module     *moduleLoader
	moduleErr  error

	linkOnce sync.Once
	linked   map[string]bool
	linkErr  error
)

func scanModule(t *testing.T) *moduleLoader {
	t.Helper()
	moduleOnce.Do(func() { module, moduleErr = loadModule(".") })
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return module
}

// linkedSymbols builds the CLIs and the benchmark with inlining off, so
// that every function the linker keeps has a symbol, and returns the text
// symbols of every binary with their type arguments cut.
func linkedSymbols(t *testing.T) map[string]bool {
	t.Helper()
	linkOnce.Do(func() {
		dir := t.TempDir()
		builds := [][]string{
			{"build", "-gcflags=all=-l", "-o", dir, "./cmd/..."},
			{"build", "-C", "benchmark", "-gcflags=all=-l", "-o", filepath.Join(dir, "benchmark.bin"), "."},
		}
		for _, args := range builds {
			if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
				linkErr = fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
				return
			}
		}
		bins, err := os.ReadDir(dir)
		if err != nil {
			linkErr = err
			return
		}
		linked = map[string]bool{}
		for _, b := range bins {
			out, err := exec.Command("go", "tool", "nm", filepath.Join(dir, b.Name())).Output()
			if err != nil {
				linkErr = fmt.Errorf("go tool nm %s: %v", b.Name(), err)
				return
			}
			addTextSymbols(linked, out)
		}
	})
	if linkErr != nil {
		t.Fatal(linkErr)
	}
	return linked
}

// addTextSymbols adds the text (T, t) symbols of `go tool nm` output to
// syms, with every bracketed type-argument list cut:
// "p.(*T[go.shape.int]).M" becomes "p.(*T).M".
func addTextSymbols(syms map[string]bool, nm []byte) {
	sc := bufio.NewScanner(bytes.NewReader(nm))
	for sc.Scan() {
		// "  4a1b20 T name", where name may hold spaces.
		f := strings.Fields(sc.Text())
		if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
			continue
		}
		name := strings.Join(f[2:], " ")
		var b strings.Builder
		depth := 0
		for _, r := range name {
			switch {
			case r == '[':
				depth++
			case r == ']' && depth > 0:
				depth--
			case depth == 0:
				b.WriteRune(r)
			}
		}
		syms[b.String()] = true
	}
}

// linkerFindings returns every non-test func and method of the root
// package and internal/ (support packages and init functions aside) that
// no binary links, keyed like the allowlist and sorted by position.
func linkerFindings(l *moduleLoader, syms map[string]bool) []finding {
	var out []finding
	for _, p := range l.sortedPkgs() {
		pkg, ok := scanPkg(p.path)
		if !ok {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || (fd.Recv == nil && fd.Name.Name == "init") {
					continue
				}
				var names []string
				key := pkg + "." + fd.Name.Name
				if fd.Recv == nil {
					names = []string{p.path + "." + fd.Name.Name}
				} else {
					recv := recvName(fd.Recv.List[0].Type)
					key = pkg + "." + recv + "." + fd.Name.Name
					// A pointer method links as p.(*T).M; a value method as
					// p.T.M, or only as its pointer wrapper.
					names = []string{p.path + ".(*" + recv + ")." + fd.Name.Name}
					if _, ptr := fd.Recv.List[0].Type.(*ast.StarExpr); !ptr {
						names = append(names, p.path+"."+recv+"."+fd.Name.Name)
					}
				}
				found := false
				for _, n := range names {
					found = found || syms[n]
				}
				if !found {
					out = append(out, finding{key: key, pos: l.fset.Position(fd.Name.Pos())})
				}
			}
		}
	}
	return out
}

// fieldFindings returns the exported fields of exported internal/ structs
// (support packages aside) that no non-test file of either module writes,
// sorted by position.
func fieldFindings(l *moduleLoader) []finding {
	written := map[*types.Var]bool{}
	for _, p := range l.pkgs {
		fieldWrites(p.files, p.info, func(v *types.Var) { written[v.Origin()] = true })
	}
	var out []finding
	for _, p := range l.sortedPkgs() {
		pkg, ok := scanPkg(p.path)
		if !ok || p.path == "plugvolt" {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !written[f] {
					out = append(out, finding{key: pkg + "." + name + "." + f.Name(), pos: l.fset.Position(f.Pos())})
				}
			}
		}
	}
	sortFindings(out)
	return out
}

// fieldWrites calls mark with every struct field the files write:
//   - a field of a composite literal, keyed or positional;
//   - the target of an assignment, op-assignment, increment or decrement,
//     and each field on its selector chain (x.A.B = v writes A and B);
//   - the operand of &, with its chain (&x.A writes A).
//
// The chain runs through parentheses, index expressions and dereferences,
// and a promoted field writes each embedded field on its path. A read
// writes nothing.
func fieldWrites(files []*ast.File, info *types.Info, mark func(*types.Var)) {
	lvalue := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.SelectorExpr:
				if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
					t := sel.Recv()
					for _, i := range sel.Index() {
						if p, ok := t.Underlying().(*types.Pointer); ok {
							t = p.Elem()
						}
						f := t.Underlying().(*types.Struct).Field(i)
						mark(f)
						t = f.Type()
					}
				}
				e = x.X
			default:
				return
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				t := info.TypeOf(n)
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				st, ok := t.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
							mark(v)
						}
					} else {
						mark(st.Field(i))
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					lvalue(lhs)
				}
			case *ast.IncDecStmt:
				lvalue(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					lvalue(n.X)
				}
			}
			return true
		})
	}
}

// scanPkg maps a module package path to its allowlist prefix, and reports
// whether the scans cover it: the root package and internal/ apart from
// the support packages.
func scanPkg(path string) (string, bool) {
	if path == "plugvolt" {
		return "plugvolt", true
	}
	pkg, ok := strings.CutPrefix(path, "plugvolt/internal/")
	if !ok {
		return "", false
	}
	_, support := supportPackages[strings.SplitN(pkg, "/", 2)[0]]
	return pkg, !support
}

func sortFindings(fs []finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i].pos, fs[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
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

// sortedPkgs returns the checked packages in import-path order.
func (l *moduleLoader) sortedPkgs() []*checkedPkg {
	out := make([]*checkedPkg, 0, len(l.pkgs))
	for _, p := range l.pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out
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
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
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
	key string
	pos token.Position
	// own are the source ranges that belong to the declaration itself: a
	// reference from inside them (recursion, a method's receiver naming its
	// type) does not count as a use.
	own [][2]token.Pos
}

func (d *exportedDecl) owns(p token.Pos) bool {
	for _, r := range d.own {
		if r[0] <= p && p < r[1] {
			return true
		}
	}
	return false
}

// exportFindings returns the exported internal/ declarations (support
// packages aside) that no non-test file references outside the
// declaration itself, sorted by position.
func exportFindings(l *moduleLoader) []finding {
	decls := map[types.Object]*exportedDecl{}
	add := func(p *checkedPkg, recv string, id *ast.Ident, from, to token.Pos) {
		pkg, ok := scanPkg(p.path)
		if !ok || p.path == "plugvolt" {
			return
		}
		if recv != "" {
			pkg += "." + recv
		}
		if obj := p.info.Defs[id]; obj != nil && id.IsExported() {
			decls[obj] = &exportedDecl{key: pkg + "." + id.Name, pos: l.fset.Position(id.Pos()), own: [][2]token.Pos{{from, to}}}
		}
	}
	type method struct {
		p  *checkedPkg
		fd *ast.FuncDecl
	}
	var methods []method
	for _, p := range l.pkgs {
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
							if it, ok := spec.Type.(*ast.InterfaceType); ok {
								for _, m := range it.Methods.List {
									for _, id := range m.Names {
										add(p, spec.Name.Name, id, m.Pos(), m.End())
									}
								}
							}
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
	var out []finding
	for obj, d := range decls {
		if used[obj] {
			continue
		}
		if fn, ok := obj.(*types.Func); ok && implementsInterface(fn, ifaces) {
			continue
		}
		out = append(out, finding{key: d.key, pos: d.pos})
	}
	sortFindings(out)
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
