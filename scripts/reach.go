//go:build ignore

// reach lists the non-test functions, methods and types under internal/,
// cmd/* and examples/* that nothing that ships reaches, so dead code
// cannot silently regrow.
//
// Roots: every declaration of bench/ and the root package (its exported
// API), each command's and example's main, every init, and every
// package-level var or const declaration. A command or an example is
// rooted at main, not at every declaration it holds, so a helper in one
// that main no longer reaches is a finding like one under internal/. An
// edge is an identifier a live declaration uses
// (signature and body), plus, for a live type, each method that
// satisfies an interface: any method an interface outside the module
// names (fmt.Stringer, sort.Interface, http.Handler — their callers are
// in the standard library), and for the module's own interfaces only the
// methods live code calls through them. _test.go files are not roots.
//
// Names kept on purpose are listed in scripts/reach.allow, one
// "import/path.Recv.Name<TAB>reason" per line; they count as roots. The
// list is for names a test in another package reads: a seam only its
// own package's tests read lives in that package's export_test.go.
// Any other unreached name, an allowlist entry that matches no
// declaration, and one that is reached anyway are failures. So is a
// cmd/* or examples/* package with no _test.go file: a command or an
// example is a root only because it is a tested program.
//
// Last it prints "config fields: N in T types", the settings surface
// configFields counts; that line is informational and gates nothing.
//
// Run from the module root: go run scripts/reach.go
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"sort"
	"strings"
)

const allowFile = "scripts/reach.allow"

type pkg struct {
	files []*ast.File
	types *types.Package
}

type loader struct {
	fset *token.FileSet
	src  map[string]*pkg
	std  types.Importer
	info *types.Info
}

// Import type-checks module packages from the parsed files, so every
// package shares one object graph, and everything else from GOROOT source.
func (l *loader) Import(path string) (*types.Package, error) {
	p, ok := l.src[path]
	if !ok {
		return l.std.Import(path)
	}
	if p.types == nil {
		var err error
		if p.types, err = (&types.Config{Importer: l}).Check(path, l.fset, p.files, l.info); err != nil {
			return nil, err
		}
	}
	return p.types, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(1)
	}
}

func run() error {
	out, err := exec.Command("go", "list", "-f", `{{.ImportPath}}{{"\t"}}{{.Dir}}{{"\t"}}{{join .GoFiles " "}}{{"\t"}}{{if or .TestGoFiles .XTestGoFiles}}tested{{end}}`, "./...").Output()
	if err != nil {
		return fmt.Errorf("go list: %w", err)
	}
	build.Default.CgoEnabled = false // the source importer would otherwise run cgo for net and os/user
	l := &loader{fset: token.NewFileSet(), src: map[string]*pkg{},
		info: &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	var paths, untested []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		p := &pkg{}
		for _, name := range strings.Fields(f[2]) {
			file, err := parser.ParseFile(l.fset, f[1]+"/"+name, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, file)
		}
		l.src[f[0]] = p
		paths = append(paths, f[0])
		if f[3] == "" {
			untested = append(untested, f[0])
		}
	}
	module := paths[0] // go list prints the root package first
	for _, path := range paths {
		if _, err := l.Import(path); err != nil {
			return err
		}
	}

	// decl maps each declared function, method and package-level type to
	// its syntax; name is how the report and the allowlist spell it.
	decl := map[types.Object]ast.Node{}
	name := map[types.Object]string{}
	var roots []ast.Node
	// checked holds the packages whose unreached declarations are
	// findings: internal/ and the programs, which are rooted at main.
	checked := map[string]bool{}
	for _, path := range paths {
		p := l.src[path]
		whole := path == module || path == module+"/bench"
		program := strings.HasPrefix(path, module+"/cmd/") || strings.HasPrefix(path, module+"/examples/")
		checked[path] = program || strings.HasPrefix(path, module+"/internal/")
		for _, file := range p.files {
			if whole {
				roots = append(roots, file)
			}
			for _, d := range file.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && (d.Name.Name == "init" || program && d.Name.Name == "main") {
						roots = append(roots, d)
						continue
					}
					obj := l.info.Defs[d.Name]
					decl[obj] = d
					name[obj] = path + "." + d.Name.Name
					if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
						t := recv.Type()
						if ptr, ok := t.(*types.Pointer); ok {
							t = ptr.Elem()
						}
						name[obj] = path + "." + t.(*types.Named).Obj().Name() + "." + d.Name.Name
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							decl[l.info.Defs[s.Name]] = s
							name[l.info.Defs[s.Name]] = path + "." + s.Name.Name
						case *ast.ValueSpec:
							roots = append(roots, s)
						}
					}
				}
			}
		}
	}

	// ifaces is every interface a live type might satisfy: each one the
	// module's code mentions and each one a package it imports declares.
	var ifaces []*types.Interface
	for _, tv := range l.info.Types {
		if it, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	seenPkg := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(tp *types.Package) {
		if seenPkg[tp] {
			return
		}
		seenPkg[tp] = true
		for _, imp := range tp.Imports() {
			visit(imp)
		}
		if l.src[tp.Path()] != nil {
			return
		}
		for _, n := range tp.Scope().Names() {
			tn, ok := tp.Scope().Lookup(n).(*types.TypeName)
			if !ok {
				continue
			}
			if nt, ok := tn.Type().(*types.Named); ok && nt.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	for _, path := range paths {
		visit(l.src[path].types)
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))

	live := map[types.Object]bool{}
	called := map[*types.Func]bool{} // module interface methods live code calls
	var queue []ast.Node
	satisfies := map[*types.TypeName][]*types.Interface{}
	mark := func(obj types.Object) {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
			called[fn.Origin()] = true
		}
		if node, ok := decl[obj]; ok && !live[obj] {
			live[obj] = true
			queue = append(queue, node)
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				ptr := types.NewPointer(tn.Type())
				for _, it := range ifaces {
					if types.Implements(ptr, it) {
						satisfies[tn] = append(satisfies[tn], it)
					}
				}
			}
		}
	}
	drain := func() {
		for len(queue) > 0 {
			node := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			ast.Inspect(node, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && l.info.Uses[id] != nil {
					mark(l.info.Uses[id])
				}
				return true
			})
		}
	}
	propagate := func() {
		for n := -1; n != len(live); {
			n = len(live)
			drain()
			for tn, its := range satisfies {
				ms := types.NewMethodSet(types.NewPointer(tn.Type()))
				for _, it := range its {
					for i := 0; i < it.NumMethods(); i++ {
						m := it.Method(i)
						if m.Pkg() == nil || l.src[m.Pkg().Path()] == nil || called[m] {
							mark(ms.Lookup(m.Pkg(), m.Name()).Obj())
						}
					}
				}
			}
		}
	}
	queue = roots
	propagate()

	allow, err := readAllow()
	if err != nil {
		return err
	}
	byName := map[string]types.Object{}
	for obj, n := range name {
		byName[n] = obj
	}
	var bad []string
	for n := range allow {
		switch obj, ok := byName[n]; {
		case !ok:
			bad = append(bad, n+"\tallowlisted but not declared")
		case live[obj]:
			bad = append(bad, n+"\tallowlisted but reached")
		default:
			mark(obj)
		}
	}
	propagate()
	for obj, n := range name {
		if !live[obj] && checked[obj.Pkg().Path()] {
			kind := "func"
			if _, ok := obj.(*types.TypeName); ok {
				kind = "type"
			}
			bad = append(bad, n+"\tunreached "+kind)
		}
	}
	for _, path := range untested {
		switch {
		case strings.HasPrefix(path, module+"/cmd/"):
			bad = append(bad, path+"\tcommand without a test")
		case strings.HasPrefix(path, module+"/examples/"):
			bad = append(bad, path+"\texample without a test")
		}
	}
	sort.Strings(bad)
	for _, line := range bad {
		fmt.Println(line)
	}
	fields, structs := configFields(l, paths, module)
	fmt.Printf("config fields: %d in %d types\n", fields, structs)
	if len(bad) > 0 {
		return fmt.Errorf("%d findings (delete the code, or add it to %s with a reason)", len(bad), allowFile)
	}
	return nil
}

// configRecords are the exported structs whose names end like a
// settings type's but which are data, not settings.
var configRecords = map[string]bool{"bgp.Config": true, "core.DatasetConfig": true, "sched.PlannedConfig": true}

// configFields counts the exported fields of the exported
// …Config/…Options/…Params/…Constraints structs under internal/, bar
// configRecords: the settings surface a caller can vary. It is
// informational, like the line counts scripts/ci.sh prints.
func configFields(l *loader, paths []string, module string) (fields, structs int) {
	for _, path := range paths {
		if !strings.HasPrefix(path, module+"/internal/") {
			continue
		}
		scope := l.src[path].types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !tn.Exported() || configRecords[tn.Pkg().Name()+"."+name] ||
				!strings.HasSuffix(name, "Config") && !strings.HasSuffix(name, "Options") &&
					!strings.HasSuffix(name, "Params") && !strings.HasSuffix(name, "Constraints") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			structs++
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i).Exported() {
					fields++
				}
			}
		}
	}
	return fields, structs
}

// readAllow parses the allowlist; a missing file is an empty list.
func readAllow() (map[string]bool, error) {
	data, err := os.ReadFile(allowFile)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	allow := map[string]bool{}
	prev := ""
	for i, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		n, reason, ok := strings.Cut(line, "\t")
		if !ok || strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: want name<TAB>reason", allowFile, i+1)
		}
		if n <= prev {
			return nil, fmt.Errorf("%s:%d: %s is out of order or repeated (keep the list sorted)", allowFile, i+1, n)
		}
		allow[n], prev = true, n
	}
	return allow, nil
}
