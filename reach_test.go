package triplec

// A source-level reachability guard: every function declared under internal/
// must be reachable from a program, so code that only its own unit tests call
// does not accumulate. It type-checks this module and the benchmark module
// with the standard library alone (go/parser, go/types and the export data
// `go list -export` reports for standard packages) and walks the call graph.

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The allowlists name what a guard accepts although it reports it; each
// entry says why it stays. An entry that is no longer reported, or whose
// declaration is gone, fails its guard so a list cannot go stale. An entry
// needs one of two reasons: the benchmark module, which changes only with
// the benchmark, names it; or it is safety code (a value kept to detect or
// recover from a fault).
var (
	// reachAllowlist: internal functions no program reaches.
	reachAllowlist = map[string]string{}
	// fieldAllowlist: internal struct fields no reached code reads.
	fieldAllowlist = map[string]string{
		"slo.FrameInput.Frame":     "benchmark: benchmark/replay.go writes it",
		"pipeline.TaskError.Stack": "safety: the stack of a recovered task panic, kept to diagnose the fault",
	}
	// optionAllowlist: options only a constant sets.
	optionAllowlist = map[string]string{}
)

// stdInterfaces are the interfaces through which the standard library calls
// module methods: a type that implements one has those methods live.
var stdInterfaces = [][2]string{
	{"", "error"}, {"fmt", "Stringer"}, {"fmt", "Formatter"},
	{"net/http", "Handler"}, {"io", "Reader"}, {"io", "Writer"}, {"io", "Closer"},
	{"sort", "Interface"}, {"encoding/json", "Marshaler"}, {"encoding/json", "Unmarshaler"},
}

// templateField matches a field or method reference inside a template.
var templateField = regexp.MustCompile(`\.([A-Z][A-Za-z0-9_]*)`)

// TestInternalFunctionsReachable fails with the internal functions that no
// program reaches. The roots are:
//   - main and init of every package main (cmd/*, examples/*, benchmark);
//   - every package's init functions and package-level initializers;
//   - the root package's exported functions and its Test, Benchmark, Fuzz and
//     Example functions (the paper's figure, table and ablation harness), and
//     the benchmark module's tests;
//   - the exported methods of every type the root package aliases;
//   - every method whose name is called through an interface, the methods
//     of stdInterfaces a module type implements, and the methods a template
//     names on a type its data can reach.
func TestInternalFunctionsReachable(t *testing.T) {
	m := moduleReach(t)
	found := m.deadFunctions()
	lines := 0
	for _, f := range found {
		if _, ok := reachAllowlist[f.name]; !ok {
			lines += f.lines
		}
	}
	checkGuard(t, found, reachAllowlist, fmt.Sprintf("internal functions (%d code lines) are reachable from no program; delete them, move them into a _test.go file", lines))
}

// TestInternalFieldsRead fails with the fields of internal struct types that
// no reached code reads. A field is read when a reached body selects it
// other than as the target of an assignment or ++ (composite-literal keys and
// positional elements are writes) or selects through it to a promoted field
// or method; when its struct is compared with == or used as a map key; when
// an encoding/json, fmt or log call or a template's data can reach it; when
// it carries a json tag; or when it is an exported field of a type the root
// package aliases.
func TestInternalFieldsRead(t *testing.T) {
	m := moduleReach(t)
	checkGuard(t, m.unreadFields(), fieldAllowlist, "internal struct fields are read by no reached code; delete them with the code that only writes them")
}

// TestConfigFieldsSet fails with the fields of internal *Config, *Params and
// *Options types that only a constant ever sets. A field is set when reached
// code outside its own package writes it (a program, the root harness, or a
// package that wires it), or when its own package writes it a value that is
// not constant; every other field is a constant dressed as an option. A
// facade alias does not exempt an option.
func TestConfigFieldsSet(t *testing.T) {
	m := moduleReach(t)
	checkGuard(t, m.constantOptions(), optionAllowlist, "options are set only by their own package, and only to constants; make each a constant or delete its code path")
}

// TestReachFixture runs the guards on testdata/reach, a module that plants
// one of each case they classify, and checks that each guard reports exactly
// the planted findings: an unreached function; a field that is only written;
// fields read only through encoding/json, fmt, log, a json tag, a map key,
// ==, template data, an embedded promotion or a facade alias; an option that
// only its own package sets to a constant, also behind a facade alias,
// beside one a program sets and one set to a computed value; and a stale
// allowlist entry.
func TestReachFixture(t *testing.T) {
	if raceEnabled {
		t.Skip("reads source only; nothing here runs concurrently")
	}
	m, err := loadReach(filepath.Join("testdata", "reach"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		guard string
		found []reachFinding
		allow map[string]string
		want  []string
		stale []string
	}{
		{"functions", m.deadFunctions(), nil, []string{"lib.dead"}, nil},
		{"fields", m.unreadFields(), map[string]string{"lib.ViaFmt.Field": "read through fmt"},
			[]string{"lib.Unread.Dead"}, []string{"lib.ViaFmt.Field"}},
		{"options", m.constantOptions(), nil, []string{"lib.Config.Defaulted", "lib.FacadeConfig.Knob"}, nil},
	} {
		bad, stale := flagged(tc.found, tc.allow)
		var got []string
		for _, f := range bad {
			got = append(got, f.name)
		}
		if !slices.Equal(got, tc.want) || !slices.Equal(stale, tc.stale) {
			t.Errorf("%s guard reports %v, stale %v; want %v, stale %v", tc.guard, got, stale, tc.want, tc.stale)
		}
	}
}

// importLayers orders the internal packages, lowest layer first: a package
// may import only packages in strictly lower layers. The three C's have two
// homes — the application's demand in flowgraph, the machine in platform —
// because tasks imports platform for its cost type and flowgraph keys
// Table 1 by task name.
var importLayers = [][]string{
	{"metrics", "parallel", "platform", "span", "stats"},
	{"frame", "trace"},
	{"synth", "tasks"},
	{"fault", "flowgraph", "partition"},
	{"pipeline", "slo"},
	{"core"},
	{"sched", "shadow"},
	{"mapping", "promote"},
	{"bench", "experiments", "stream"},
}

// TestImportLayers fails on an internal import that does not point to a
// strictly lower layer of importLayers, on an internal package the list
// leaves out and on a listed package that no longer exists.
func TestImportLayers(t *testing.T) {
	m := moduleReach(t)
	if bad := layerFindings(m.internalImports(), importLayers); len(bad) > 0 {
		t.Errorf("%d import-layer findings; remove the import or move the package in importLayers:\n\t%s",
			len(bad), strings.Join(bad, "\n\t"))
	}
}

// TestImportLayersFixture runs the layer check on a planted graph holding
// one of each finding it reports, beside imports it accepts.
func TestImportLayersFixture(t *testing.T) {
	graph := map[string][]string{
		"base":   nil,
		"mid":    {"base"},
		"peer":   {"mid", "base"},
		"top":    {"mid", "peer"},
		"raised": {"top"},
		"extra":  {"base"},
	}
	layers := [][]string{{"base", "raised"}, {"mid", "peer"}, {"top"}, {"gone"}}
	want := []string{
		"peer imports mid, both in layer 2",
		"raised (layer 1) imports top (layer 3), a higher layer",
		"extra is in no layer",
		"gone is listed but is no package",
	}
	if got := layerFindings(graph, layers); !slices.Equal(got, want) {
		t.Errorf("layer check reports\n\t%s\nwant\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
}

// internalImports maps every internal package, by its path below internal/,
// to the internal packages its non-test files import.
func (m *reachModule) internalImports() map[string][]string {
	prefix := m.l.rootPath + "/internal/"
	graph := map[string][]string{}
	for _, path := range m.l.sortedPaths() {
		name, ok := strings.CutPrefix(path, prefix)
		if !ok {
			continue
		}
		seen := map[string]bool{}
		graph[name] = nil
		p := m.l.pkgs[path]
		for _, f := range p.files {
			if p.tests[f] {
				continue
			}
			for _, im := range f.Imports {
				dep, ok := strings.CutPrefix(strings.Trim(im.Path.Value, `"`), prefix)
				if ok && !seen[dep] {
					seen[dep] = true
					graph[name] = append(graph[name], dep)
				}
			}
		}
		sort.Strings(graph[name])
	}
	return graph
}

// layerFindings checks graph against layers: first every import that does
// not point to a strictly lower layer, then every package no layer lists,
// then every listed name that is no package in graph.
func layerFindings(graph map[string][]string, layers [][]string) []string {
	layer := map[string]int{}
	for i, names := range layers {
		for _, name := range names {
			layer[name] = i + 1
		}
	}
	pkgs := make([]string, 0, len(graph))
	for name := range graph {
		pkgs = append(pkgs, name)
	}
	sort.Strings(pkgs)
	var imports, unlisted, stale []string
	for _, name := range pkgs {
		from, ok := layer[name]
		if !ok {
			unlisted = append(unlisted, name+" is in no layer")
			continue
		}
		for _, dep := range graph[name] {
			switch to, ok := layer[dep]; {
			case !ok:
				// reported as unlisted on its own
			case to == from:
				imports = append(imports, fmt.Sprintf("%s imports %s, both in layer %d", name, dep, from))
			case to > from:
				imports = append(imports, fmt.Sprintf("%s (layer %d) imports %s (layer %d), a higher layer", name, from, dep, to))
			}
		}
	}
	for _, names := range layers {
		for _, name := range names {
			if _, ok := graph[name]; !ok {
				stale = append(stale, name+" is listed but is no package")
			}
		}
	}
	return append(append(imports, unlisted...), stale...)
}

// reachFinding is one declaration a guard reports.
type reachFinding struct {
	name  string // pkg.Func, pkg.Type.Method or pkg.Type.Field
	pos   token.Position
	lines int // code lines, for functions
}

func (f reachFinding) String() string {
	s := fmt.Sprintf("%s (%s:%d", f.name, filepath.ToSlash(f.pos.Filename), f.pos.Line)
	if f.lines > 0 {
		s += fmt.Sprintf(", %d lines", f.lines)
	}
	return s + ")"
}

// flagged splits a guard's findings against its allowlist: the findings the
// allowlist does not name, and the entries that name no finding.
func flagged(found []reachFinding, allow map[string]string) (bad []reachFinding, stale []string) {
	hit := map[string]bool{}
	for _, f := range found {
		hit[f.name] = true
		if _, ok := allow[f.name]; !ok {
			bad = append(bad, f)
		}
	}
	for name := range allow {
		if !hit[name] {
			stale = append(stale, name)
		}
	}
	sort.Slice(bad, func(i, j int) bool { return bad[i].name < bad[j].name })
	sort.Strings(stale)
	return bad, stale
}

// checkGuard fails t with every finding the allowlist does not name and every
// allowlist entry that has gone stale.
func checkGuard(t *testing.T, found []reachFinding, allow map[string]string, what string) {
	t.Helper()
	bad, stale := flagged(found, allow)
	if len(bad) > 0 {
		lines := make([]string, len(bad))
		for i, f := range bad {
			lines[i] = f.String()
		}
		t.Errorf("%d %s, or allowlist them with a reason:\n\t%s", len(bad), what, strings.Join(lines, "\n\t"))
	}
	for _, name := range stale {
		t.Errorf("allowlist entry %s is no longer reported or no longer declared; delete the entry", name)
	}
}

// reachModule is a loaded module and its call-graph walk; the guards share
// one per test binary.
type reachModule struct {
	l    *reachLoader
	g    *reachGraph
	uses *fieldUses // built on first use
}

var (
	reachOnce   sync.Once
	reachShared *reachModule
	reachErr    error
)

// moduleReach loads this module and the benchmark module once.
func moduleReach(t *testing.T) *reachModule {
	t.Helper()
	if raceEnabled {
		t.Skip("reads source only; nothing here runs concurrently")
	}
	reachOnce.Do(func() { reachShared, reachErr = loadReach(".", "benchmark") })
	if reachErr != nil {
		t.Fatal(reachErr)
	}
	return reachShared
}

// loadReach type-checks the modules rooted at dirs, the first being the root
// module, and walks their call graph.
func loadReach(dirs ...string) (*reachModule, error) {
	l := &reachLoader{
		fset:     token.NewFileSet(),
		dirs:     map[string]string{},
		withTest: map[string]bool{},
		pkgs:     map[string]*reachPkg{},
		src:      map[string][]byte{},
	}
	for _, mod := range dirs {
		if err := l.scan(mod); err != nil {
			return nil, err
		}
	}
	if err := l.loadAll(); err != nil {
		return nil, err
	}
	g := newReachGraph(l)
	if err := g.walk(); err != nil {
		return nil, err
	}
	return &reachModule{l: l, g: g}, nil
}

// internalFiles calls fn for every non-test file of every internal package.
func (m *reachModule) internalFiles(fn func(p *reachPkg, f *ast.File)) {
	for _, path := range m.l.sortedPaths() {
		if !strings.HasPrefix(path, m.l.rootPath+"/internal/") {
			continue
		}
		p := m.l.pkgs[path]
		for _, f := range p.files {
			if !p.tests[f] {
				fn(p, f)
			}
		}
	}
}

// deadFunctions lists the internal functions no program reaches.
func (m *reachModule) deadFunctions() []reachFinding {
	var found []reachFinding
	m.internalFiles(func(p *reachPkg, f *ast.File) {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, _ := p.info.Defs[fd.Name].(*types.Func); fn != nil && !m.g.seen[fn] && fd.Name.Name != "_" {
				found = append(found, reachFinding{reachName(p.types.Name(), fd), m.l.fset.Position(fd.Pos()), m.l.codeLines(fd)})
			}
		}
	})
	return found
}

// reachPkg is one type-checked package.
type reachPkg struct {
	files []*ast.File
	tests map[*ast.File]bool
	types *types.Package
	info  *types.Info
}

// reachLoader finds, parses and type-checks the module's packages; standard
// packages come from their compiled export data.
type reachLoader struct {
	fset     *token.FileSet
	rootPath string
	dirs     map[string]string // import path → directory
	withTest map[string]bool   // packages whose _test.go files are roots
	pkgs     map[string]*reachPkg
	src      map[string][]byte // file name → contents
	std      types.Importer
}

// scan records every package directory of the module rooted at dir.
func (l *reachLoader) scan(dir string) error {
	mod, err := modulePath(dir)
	if err != nil {
		return err
	}
	if l.rootPath == "" {
		l.rootPath = mod
	}
	// The root package's tests are the paper harness; the benchmark
	// module's tests drive its workloads.
	l.withTest[mod] = true
	return filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if p != dir {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module is scanned on its own
			}
		}
		if m, _ := filepath.Glob(filepath.Join(p, "*.go")); len(m) == 0 {
			return nil
		}
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			return err
		}
		path := mod
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		l.dirs[path] = p
		return nil
	})
}

// modulePath reads the module line of dir/go.mod.
func modulePath(dir string) (string, error) {
	f, err := os.Open(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	defer f.Close()
	s := bufio.NewScanner(f)
	for s.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(s.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s/go.mod: no module line", dir)
}

func (l *reachLoader) sortedPaths() []string {
	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// loadAll parses every package, resolves the standard imports in one
// `go list -export` call and type-checks the packages in import order.
func (l *reachLoader) loadAll() error {
	std := map[string]bool{}
	for _, in := range stdInterfaces {
		if in[0] != "" {
			std[in[0]] = true
		}
	}
	for _, path := range l.sortedPaths() {
		dir := l.dirs[path]
		bp, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			return err
		}
		names := bp.GoFiles
		if l.withTest[path] {
			names = append(names[:len(names):len(names)], bp.TestGoFiles...)
		}
		p := &reachPkg{tests: map[*ast.File]bool{}}
		for _, n := range names {
			fn := filepath.Join(dir, n)
			b, err := os.ReadFile(fn)
			if err != nil {
				return err
			}
			f, err := parser.ParseFile(l.fset, fn, b, 0)
			if err != nil {
				return err
			}
			l.src[fn] = b
			p.files = append(p.files, f)
			p.tests[f] = strings.HasSuffix(n, "_test.go")
			for _, im := range f.Imports {
				if ip := strings.Trim(im.Path.Value, `"`); l.dirs[ip] == "" {
					std[ip] = true
				}
			}
		}
		l.pkgs[path] = p
	}
	exports, err := stdExports(std)
	if err != nil {
		return err
	}
	l.std = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		if f := exports[path]; f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	for _, path := range l.sortedPaths() {
		if _, err := l.Import(path); err != nil {
			return err
		}
	}
	return nil
}

// stdExports maps each standard package the module imports, and its
// dependencies, to the export-data file the go command built for it.
func stdExports(paths map[string]bool) (map[string]string, error) {
	args := []string{"list", "-deps", "-export", "-f", "{{.ImportPath}} {{.Export}}"}
	for p := range paths {
		args = append(args, p)
	}
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v: %s", err, stderr.Bytes())
	}
	m := map[string]string{}
	for _, line := range strings.Split(string(out), "\n") {
		if path, file, ok := strings.Cut(line, " "); ok {
			m[path] = file
		}
	}
	return m, nil
}

// Import type-checks a module package on first use; the loader is the
// types.Importer of every package it checks.
func (l *reachLoader) Import(path string) (*types.Package, error) {
	p := l.pkgs[path]
	if p == nil {
		return l.std.Import(path)
	}
	if p.types != nil {
		return p.types, nil
	}
	p.info = &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Types:      map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: l}
	tp, err := conf.Check(path, l.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	p.types = tp
	return tp, nil
}

// codeLines counts the lines of a declaration that are neither blank nor
// comment-only.
func (l *reachLoader) codeLines(fd *ast.FuncDecl) int {
	from, to := l.fset.Position(fd.Pos()), l.fset.Position(fd.End())
	src := l.src[from.Filename]
	n := 0
	for i, line := range strings.Split(string(src), "\n") {
		if i+1 < from.Line || i+1 > to.Line {
			continue
		}
		if s := strings.TrimSpace(line); s != "" && !strings.HasPrefix(s, "//") {
			n++
		}
	}
	return n
}

// reachName is pkg.Func or pkg.Type.Method.
func reachName(pkg string, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkg + "." + fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
			continue
		case *ast.IndexExpr:
			t = x.X
			continue
		case *ast.IndexListExpr:
			t = x.X
			continue
		case *ast.Ident:
			return pkg + "." + x.Name + "." + fd.Name.Name
		}
		return pkg + "." + fd.Name.Name
	}
}

// reachGraph is the worklist walk over function bodies.
type reachGraph struct {
	l       *reachLoader
	bodies  map[*types.Func]reachBody
	methods map[string][]*types.Func // module methods by name
	seen    map[*types.Func]bool
	called  map[string]bool // method names dispatched through an interface
	queue   []*types.Func
	allowed map[string]bool

	tmplNames map[string]bool       // names referenced inside templates
	tmplTypes map[*types.Named]bool // types reachable from template data
}

type reachBody struct {
	body *ast.BlockStmt
	info *types.Info
}

func newReachGraph(l *reachLoader) *reachGraph {
	g := &reachGraph{
		l:         l,
		bodies:    map[*types.Func]reachBody{},
		methods:   map[string][]*types.Func{},
		seen:      map[*types.Func]bool{},
		called:    map[string]bool{},
		allowed:   map[string]bool{},
		tmplNames: map[string]bool{},
		tmplTypes: map[*types.Named]bool{},
	}
	for _, p := range l.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					if fn, ok := p.info.Defs[fd.Name].(*types.Func); ok {
						g.bodies[fn] = reachBody{fd.Body, p.info}
						if fd.Recv != nil {
							g.methods[fn.Name()] = append(g.methods[fn.Name()], fn)
						}
					}
				}
			}
		}
	}
	return g
}

// walk marks the roots and follows every function use to a fixed point.
func (g *reachGraph) walk() error {
	if err := g.markStdInterfaces(); err != nil {
		return err
	}
	for path, p := range g.l.pkgs {
		harness := g.l.withTest[path]
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.GenDecl:
					g.visit(p.info, d) // package-level initializers
				case *ast.FuncDecl:
					fn, _ := p.info.Defs[d.Name].(*types.Func)
					if fn == nil {
						continue
					}
					name := d.Name.Name
					switch {
					case d.Recv == nil && name == "init",
						d.Recv == nil && name == "main" && p.types.Name() == "main",
						harness && p.tests[f] && d.Recv == nil && isHarnessFunc(name),
						path == g.l.rootPath && !p.tests[f] && fn.Exported():
						g.mark(fn)
					}
				}
			}
		}
	}
	// Methods of the types the facade aliases are public API.
	scope := g.l.pkgs[g.l.rootPath].types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.IsAlias() {
			continue
		}
		ms := types.NewMethodSet(types.NewPointer(tn.Type()))
		for i := 0; i < ms.Len(); i++ {
			if fn, ok := ms.At(i).Obj().(*types.Func); ok && fn.Exported() {
				g.mark(fn.Origin())
			}
		}
	}
	for {
		for len(g.queue) > 0 {
			fn := g.queue[len(g.queue)-1]
			g.queue = g.queue[:len(g.queue)-1]
			if b, ok := g.bodies[fn]; ok && b.body != nil {
				g.visit(b.info, b.body)
			}
		}
		// A template calls the methods it names on its data.
		types0 := len(g.tmplTypes)
		for t := range g.tmplTypes {
			for name := range g.tmplNames {
				if fn := methodOf(t, name); fn != nil {
					g.mark(fn)
					res := fn.Type().(*types.Signature).Results()
					for i := 0; i < res.Len(); i++ {
						g.templateData(res.At(i).Type())
					}
				}
			}
		}
		if len(g.queue) == 0 && len(g.tmplTypes) == types0 {
			return nil
		}
	}
}

// markStdInterfaces marks the methods by which the standard library's
// interfaces reach module types.
func (g *reachGraph) markStdInterfaces() error {
	var ifaces []*types.Interface
	for _, in := range stdInterfaces {
		obj := types.Universe.Lookup(in[1])
		if in[0] != "" {
			pkg, err := g.l.std.Import(in[0])
			if err != nil {
				return err
			}
			obj = pkg.Scope().Lookup(in[1])
		}
		ifaces = append(ifaces, obj.Type().Underlying().(*types.Interface))
	}
	for _, p := range g.l.pkgs {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
				continue
			}
			for _, in := range ifaces {
				if !types.Implements(types.NewPointer(named), in) {
					continue
				}
				for i := 0; i < in.NumMethods(); i++ {
					if fn := methodOf(named, in.Method(i).Name()); fn != nil {
						g.mark(fn)
					}
				}
			}
		}
	}
	return nil
}

// methodOf returns the method of *t called name, or nil.
func methodOf(t *types.Named, name string) *types.Func {
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(t), true, t.Obj().Pkg(), name)
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return nil
}

func isHarnessFunc(name string) bool {
	for _, prefix := range []string{"Test", "Benchmark", "Fuzz", "Example"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// visit records every function n refers to, called or taken as a value,
// and the names and data of the templates it holds or executes.
func (g *reachGraph) visit(info *types.Info, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if fn, ok := info.Uses[n].(*types.Func); ok {
				g.use(fn.Origin())
			}
		case *ast.BasicLit:
			if n.Kind == token.STRING && strings.Contains(n.Value, "{{") {
				for _, m := range templateField.FindAllStringSubmatch(n.Value, -1) {
					g.tmplNames[m[1]] = true
				}
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || len(n.Args) == 0 {
				break
			}
			fn, ok := info.Uses[sel.Sel].(*types.Func)
			if ok && fn.Pkg() != nil && strings.HasSuffix(fn.Pkg().Path(), "/template") &&
				strings.HasPrefix(fn.Name(), "Execute") {
				g.templateData(info.TypeOf(n.Args[len(n.Args)-1]))
			}
		}
		return true
	})
}

// templateData records the named types a template can reach from t.
func (g *reachGraph) templateData(t types.Type) {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		if !g.tmplTypes[t] {
			g.tmplTypes[t] = true
			g.templateData(t.Underlying())
		}
	case *types.Pointer:
		g.templateData(t.Elem())
	case *types.Slice:
		g.templateData(t.Elem())
	case *types.Array:
		g.templateData(t.Elem())
	case *types.Map:
		g.templateData(t.Key())
		g.templateData(t.Elem())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			g.templateData(t.Field(i).Type())
		}
	}
}

func (g *reachGraph) use(fn *types.Func) {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		g.dispatch(fn.Name())
		return
	}
	g.mark(fn)
}

func (g *reachGraph) mark(fn *types.Func) {
	if !g.seen[fn] {
		g.seen[fn] = true
		g.queue = append(g.queue, fn)
	}
}

// dispatch marks every module method called name: an interface call may
// reach any of them.
func (g *reachGraph) dispatch(name string) {
	if g.called[name] {
		return
	}
	g.called[name] = true
	for _, fn := range g.methods[name] {
		g.mark(fn)
	}
}

// fieldUses records what the reached code does with struct fields.
type fieldUses struct {
	read   map[*types.Var]bool
	writes map[*types.Var][]fieldWrite
	seen   map[readAllKey]bool // types readAll has walked, per mode
}

type readAllKey struct {
	t    types.Type
	deep bool
}

// fieldWrite is one write of a field: a composite-literal element, an
// assignment or ++ target, or an address taken.
type fieldWrite struct {
	pkg      *types.Package
	constant bool // the value written is a constant expression
}

// fieldReaders are the packages whose functions read every field of the
// values passed to them (encoding, formatting, logging).
var fieldReaders = map[string]bool{"encoding/json": true, "fmt": true, "log": true}

// fieldUses scans every reached body and package-level initializer once.
func (m *reachModule) fieldUses() *fieldUses {
	if m.uses != nil {
		return m.uses
	}
	u := &fieldUses{read: map[*types.Var]bool{}, writes: map[*types.Var][]fieldWrite{}, seen: map[readAllKey]bool{}}
	for fn := range m.g.seen {
		if b, ok := m.g.bodies[fn]; ok && b.body != nil {
			u.scan(fn.Pkg(), b.info, b.body)
		}
	}
	for _, p := range m.l.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					u.scan(p.types, p.info, gd)
				}
			}
		}
	}
	// A template reads the fields it names on a type its data can reach,
	// and the embedded fields it promotes them through.
	for t := range m.g.tmplTypes {
		for name := range m.g.tmplNames {
			obj, idx, _ := types.LookupFieldOrMethod(types.NewPointer(t), true, t.Obj().Pkg(), name)
			if obj == nil {
				continue
			}
			var at types.Type = t
			for _, i := range idx {
				st, ok := derefStruct(at)
				if !ok {
					break
				}
				u.read[st.Field(i).Origin()] = true
				at = st.Field(i).Type()
			}
		}
	}
	m.uses = u
	return u
}

// scan records the field reads and writes under n, code of package pkg.
func (u *fieldUses) scan(pkg *types.Package, info *types.Info, n ast.Node) {
	targets := map[*ast.SelectorExpr]bool{} // selectors written, not read
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				constant := n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) && isConstant(info, n.Rhs[i])
				u.target(pkg, info, lhs, constant, targets)
			}
		case *ast.IncDecStmt:
			u.target(pkg, info, n.X, false, targets)
		case *ast.UnaryExpr:
			// An address taken may be written through; the selector
			// below it still counts as a read.
			if sel, ok := unparen(n.X).(*ast.SelectorExpr); ok && n.Op == token.AND {
				if v := selectedField(info, sel); v != nil {
					u.writes[v] = append(u.writes[v], fieldWrite{pkg, false})
				}
			}
		case *ast.IndexExpr:
			u.mapKey(info.TypeOf(n.X))
		case *ast.CompositeLit:
			u.mapKey(info.TypeOf(n))
			if st, ok := info.TypeOf(n).Underlying().(*types.Struct); ok {
				for i, el := range n.Elts {
					v, val := st.Field(i), el
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						v, _ = info.Uses[kv.Key.(*ast.Ident)].(*types.Var)
						val = kv.Value
					}
					if v != nil {
						v = v.Origin()
						u.writes[v] = append(u.writes[v], fieldWrite{pkg, isConstant(info, val)})
					}
				}
			}
		case *ast.SelectorExpr:
			sel := info.Selections[n]
			if sel == nil {
				break
			}
			// Every embedded field a promoted selection passes through is read.
			t, idx := sel.Recv(), sel.Index()
			for _, i := range idx[:len(idx)-1] {
				st, ok := derefStruct(t)
				if !ok {
					break
				}
				u.read[st.Field(i).Origin()] = true
				t = st.Field(i).Type()
			}
			if sel.Kind() == types.FieldVal && !targets[n] {
				u.read[sel.Obj().(*types.Var).Origin()] = true
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				u.readAll(info.TypeOf(n.X), false)
			}
		case *ast.CallExpr:
			if fn := callee(info, n); fn != nil && fn.Pkg() != nil && fieldReaders[fn.Pkg().Path()] {
				for _, a := range n.Args {
					u.readAll(info.TypeOf(a), true)
				}
			}
		}
		return true
	})
}

// mapKey marks the fields of t's key read when t is a map: a map compares
// its keys with ==. Every map is indexed or built by a literal.
func (u *fieldUses) mapKey(t types.Type) {
	if t == nil {
		return
	}
	if mt, ok := t.Underlying().(*types.Map); ok {
		u.readAll(mt.Key(), false)
	}
}

// target records the fields an assignment to lhs writes: the selected field
// and every field the selection is made on, through indexing and
// dereferences, as in a.b[i].c = v.
func (u *fieldUses) target(pkg *types.Package, info *types.Info, lhs ast.Expr, constant bool, targets map[*ast.SelectorExpr]bool) {
	for {
		switch x := unparen(lhs).(type) {
		case *ast.SelectorExpr:
			v := selectedField(info, x)
			if v == nil {
				return
			}
			targets[x] = true
			u.writes[v] = append(u.writes[v], fieldWrite{pkg, constant})
			lhs = x.X
		case *ast.IndexExpr:
			lhs = x.X
		case *ast.StarExpr:
			lhs = x.X
		default:
			return
		}
	}
}

// readAll marks every field of t read: those a comparison of t compares
// (deep false) or, deep, every field a value of t leads to.
func (u *fieldUses) readAll(t types.Type, deep bool) {
	if t == nil || u.seen[readAllKey{t, deep}] {
		return
	}
	u.seen[readAllKey{t, deep}] = true
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		u.readAll(t.Underlying(), deep)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			u.read[t.Field(i).Origin()] = true
			u.readAll(t.Field(i).Type(), deep)
		}
	case *types.Array:
		u.readAll(t.Elem(), deep)
	case *types.Pointer:
		if deep {
			u.readAll(t.Elem(), deep)
		}
	case *types.Slice:
		if deep {
			u.readAll(t.Elem(), deep)
		}
	case *types.Map:
		if deep {
			u.readAll(t.Key(), deep)
			u.readAll(t.Elem(), deep)
		}
	}
}

// unreadFields lists the internal struct fields no reached code reads.
func (m *reachModule) unreadFields() []reachFinding {
	u := m.fieldUses()
	public := m.aliasedFields()
	var found []reachFinding
	m.structFields(func(name string, v *types.Var, tag string) {
		if u.read[v] || public[v] || v.Name() == "_" {
			return
		}
		if j, ok := reflect.StructTag(tag).Lookup("json"); ok && j != "-" {
			return
		}
		found = append(found, reachFinding{name: name, pos: m.l.fset.Position(v.Pos())})
	})
	return found
}

// constantOptions lists the fields of internal *Config, *Params and *Options
// types that only their own package writes, and only with constants.
func (m *reachModule) constantOptions() []reachFinding {
	u := m.fieldUses()
	var found []reachFinding
	m.structFields(func(name string, v *types.Var, _ string) {
		typ, _, _ := strings.Cut(strings.TrimPrefix(name, v.Pkg().Name()+"."), ".")
		if !strings.HasSuffix(typ, "Config") && !strings.HasSuffix(typ, "Params") && !strings.HasSuffix(typ, "Options") ||
			strings.Count(name, ".") != 2 {
			return
		}
		for _, w := range u.writes[v] {
			if !w.constant || w.pkg != v.Pkg() {
				return
			}
		}
		found = append(found, reachFinding{name: name, pos: m.l.fset.Position(v.Pos())})
	})
	return found
}

// aliasedFields returns the exported fields of the struct types the root
// package aliases: public API, read or not.
func (m *reachModule) aliasedFields() map[*types.Var]bool {
	public := map[*types.Var]bool{}
	scope := m.l.pkgs[m.l.rootPath].types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.IsAlias() {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i).Exported() {
					public[st.Field(i).Origin()] = true
				}
			}
		}
	}
	return public
}

// structFields calls fn for every field of every struct type declared in a
// non-test internal file, named pkg.Type.Field (pkg.Type.Field.Inner for
// the fields of an anonymous struct).
func (m *reachModule) structFields(fn func(name string, v *types.Var, tag string)) {
	var fields func(p *reachPkg, prefix string, x ast.Expr)
	fields = func(p *reachPkg, prefix string, x ast.Expr) {
		switch x := x.(type) {
		case *ast.StarExpr:
			fields(p, prefix, x.X)
		case *ast.ArrayType:
			fields(p, prefix, x.Elt)
		case *ast.MapType:
			fields(p, prefix, x.Value)
		case *ast.StructType:
			for _, f := range x.Fields.List {
				names := f.Names
				if len(names) == 0 {
					names = []*ast.Ident{embeddedName(f.Type)}
				}
				tag := ""
				if f.Tag != nil {
					tag, _ = strconv.Unquote(f.Tag.Value)
				}
				for _, id := range names {
					if v, ok := p.info.Defs[id].(*types.Var); ok {
						fn(prefix+"."+id.Name, v, tag)
					}
					fields(p, prefix+"."+id.Name, f.Type)
				}
			}
		}
	}
	m.internalFiles(func(p *reachPkg, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok {
				fields(p, p.types.Name()+"."+ts.Name.Name, ts.Type)
			}
			return true
		})
	})
}

// embeddedName is the identifier an embedded field is declared by.
func embeddedName(x ast.Expr) *ast.Ident {
	for {
		switch t := x.(type) {
		case *ast.Ident:
			return t
		case *ast.StarExpr:
			x = t.X
		case *ast.SelectorExpr:
			return t.Sel
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		default:
			return ast.NewIdent("_")
		}
	}
}

// selectedField is the field sel selects, or nil.
func selectedField(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
		return s.Obj().(*types.Var).Origin()
	}
	return nil
}

// callee is the function or method call invokes, or nil.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch f := unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isConstant reports whether e is a constant expression, nil, or a composite
// literal of constants.
func isConstant(info *types.Info, e ast.Expr) bool {
	if tv := info.Types[e]; tv.Value != nil || tv.IsNil() {
		return true
	}
	lit, ok := unparen(e).(*ast.CompositeLit)
	if !ok {
		return false
	}
	for _, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			el = kv.Value
		}
		if !isConstant(info, el) {
			return false
		}
	}
	return true
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// derefStruct is the struct t or *t is, if any.
func derefStruct(t types.Type) (*types.Struct, bool) {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}
