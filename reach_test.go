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
	"regexp"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names the internal functions the guard accepts although no
// program reaches them: helpers that tests in other packages share. Each entry
// says why it stays. An entry that becomes reachable, or whose function is
// deleted, fails the guard so the list cannot go stale.
var reachAllowlist = map[string]string{}

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
	if raceEnabled {
		t.Skip("reads source only; nothing here runs concurrently")
	}
	l := &reachLoader{
		fset:     token.NewFileSet(),
		dirs:     map[string]string{},
		withTest: map[string]bool{},
		pkgs:     map[string]*reachPkg{},
		src:      map[string][]byte{},
	}
	for _, mod := range []string{".", "benchmark"} {
		if err := l.scan(mod); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.loadAll(); err != nil {
		t.Fatal(err)
	}

	g := newReachGraph(l)
	if err := g.walk(); err != nil {
		t.Fatal(err)
	}

	var dead []string
	lines := 0
	for _, path := range l.sortedPaths() {
		p := l.pkgs[path]
		if !strings.HasPrefix(path, l.rootPath+"/internal/") {
			continue
		}
		for _, f := range p.files {
			if p.tests[f] {
				continue
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, _ := p.info.Defs[fd.Name].(*types.Func)
				if fn == nil || g.seen[fn] || fd.Name.Name == "_" {
					continue
				}
				name := reachName(p.types.Name(), fd)
				if _, ok := reachAllowlist[name]; ok {
					g.allowed[name] = true
					continue
				}
				n := l.codeLines(fd)
				lines += n
				pos := l.fset.Position(fd.Pos())
				dead = append(dead, fmt.Sprintf("%s (%s:%d, %d lines)", name, filepath.ToSlash(pos.Filename), pos.Line, n))
			}
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d internal functions (%d code lines) are reachable from no program; delete them, move them into a _test.go file, or allowlist them with a reason:\n\t%s",
			len(dead), lines, strings.Join(dead, "\n\t"))
	}
	for name := range reachAllowlist {
		if !g.allowed[name] {
			t.Errorf("allowlist entry %s is reachable or no longer declared; delete the entry", name)
		}
	}
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
	p.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
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
