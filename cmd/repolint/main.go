// Command repolint enforces repository conventions that go vet does not
// cover, using only the standard library's go/ast:
//
//   - Exported functions in internal/core, internal/symexec,
//     internal/faultinject, internal/sat and internal/equiv that do
//     long-running work must take a leading context.Context, so every
//     flow entry point and every unbounded solver call stays
//     cancellable. A
//     function counts as long-running when it reaches for
//     context.Background/context.TODO itself or calls — directly or
//     through a method/selector — something named like a same-package
//     function that takes a leading context.
//   - No stray fmt.Print*/print/println debugging in internal/
//     non-test files; diagnostics belong on error values or in the CLIs.
//   - No bare panic( in internal/ non-test files: library code reports
//     failures as errors. A panic is allowed only inside functions named
//     must*/Must* or init, inside a function that installs its own
//     recover boundary, or when annotated with a same-or-previous-line
//     "// panic-ok: <reason>" comment explaining why the invariant is
//     unreachable from exported entry points.
//
// Usage: repolint [root] (default ".", the module root). Exit status is
// 1 when there are issues, 2 on parse errors.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	flag.Parse()
	root := "."
	if flag.NArg() > 0 {
		root = flag.Arg(0)
	}
	issues, err := run(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
		os.Exit(2)
	}
	for _, is := range issues {
		fmt.Printf("%s:%d: %s\n", is.File, is.Line, is.Msg)
	}
	if len(issues) > 0 {
		fmt.Printf("%d issues\n", len(issues))
		os.Exit(1)
	}
}

// Issue is one convention violation.
type Issue struct {
	File string
	Line int
	Msg  string
}

// ctxPackages are the directories (relative to the root) whose exported
// API must thread context.Context through long-running work.
var ctxPackages = map[string]bool{
	"internal/core":        true,
	"internal/symexec":     true,
	"internal/faultinject": true,
	"internal/sat":         true,
	"internal/equiv":       true,
}

// run lints the tree under root and returns the issues sorted by file
// and line.
func run(root string) ([]Issue, error) {
	files, err := collect(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	parsed := map[string]*ast.File{} // rel path -> file
	byDir := map[string][]string{}   // rel dir -> rel paths
	for _, rel := range files {
		f, err := parser.ParseFile(fset, filepath.Join(root, rel), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		parsed[rel] = f
		dir := filepath.ToSlash(filepath.Dir(rel))
		byDir[dir] = append(byDir[dir], rel)
	}

	var issues []Issue
	for dir, rels := range byDir {
		// The per-package set of functions taking a leading context is
		// what lets a ctx-less exported wrapper be recognized as
		// long-running work.
		ctxFuncs := map[string]bool{}
		for _, rel := range rels {
			for _, d := range parsed[rel].Decls {
				fd, ok := d.(*ast.FuncDecl)
				if ok && hasLeadingCtx(fd) {
					ctxFuncs[fd.Name.Name] = true
				}
			}
		}
		for _, rel := range rels {
			issues = append(issues, lintFile(fset, parsed[rel], rel, ctxPackages[dir], ctxFuncs)...)
		}
	}
	sort.Slice(issues, func(i, j int) bool {
		if issues[i].File != issues[j].File {
			return issues[i].File < issues[j].File
		}
		return issues[i].Line < issues[j].Line
	})
	return issues, nil
}

// collect returns the non-test Go files under root's internal/ tree,
// relative to root.
func collect(root string) ([]string, error) {
	var files []string
	base := filepath.Join(root, "internal")
	err := filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		files = append(files, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	return files, nil
}

func lintFile(fset *token.FileSet, f *ast.File, rel string, ctxPkg bool, ctxFuncs map[string]bool) []Issue {
	var issues []Issue
	at := func(pos token.Pos, format string, args ...any) {
		issues = append(issues, Issue{
			File: rel,
			Line: fset.Position(pos).Line,
			Msg:  fmt.Sprintf(format, args...),
		})
	}
	panicOK := panicOKLines(fset, f)
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		if ctxPkg && fd.Name.IsExported() && !hasLeadingCtx(fd) && !exemptName(fd.Name.Name) {
			if reason := longRunning(fd, ctxFuncs); reason != "" {
				at(fd.Pos(), "exported %s does long-running work (%s) without a leading context.Context parameter",
					fd.Name.Name, reason)
			}
		}
		mayPanic := panicBoundary(fd)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := call.Fun.(type) {
			case *ast.SelectorExpr:
				if pkgIdent(fun.X) == "fmt" && strings.HasPrefix(fun.Sel.Name, "Print") {
					at(call.Pos(), "stray fmt.%s in internal/ (return an error or report via the CLI instead)", fun.Sel.Name)
				}
			case *ast.Ident:
				if fun.Name == "print" || fun.Name == "println" {
					at(call.Pos(), "stray builtin %s in internal/", fun.Name)
				}
				if fun.Name == "panic" && !mayPanic {
					line := fset.Position(call.Pos()).Line
					if !panicOK[line] && !panicOK[line-1] {
						at(call.Pos(), "bare panic in %s (return an error, rename the function must*, or annotate the line with // panic-ok: <reason>)",
							fd.Name.Name)
					}
				}
			}
			return true
		})
	}
	return issues
}

// panicOKLines collects the lines bearing a "// panic-ok: <reason>"
// annotation with a non-empty reason; a panic on the same or the next
// line is exempt from the bare-panic rule.
func panicOKLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			rest, ok := strings.CutPrefix(text, "panic-ok:")
			if ok && strings.TrimSpace(rest) != "" {
				lines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

// panicBoundary reports whether fd is allowed to panic wholesale: it is
// a must*/Must* helper or init (panicking is the documented contract),
// or it installs a recover boundary that contains its own panics.
func panicBoundary(fd *ast.FuncDecl) bool {
	name := fd.Name.Name
	if name == "init" || strings.HasPrefix(name, "must") || strings.HasPrefix(name, "Must") {
		return true
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "recover" {
				found = true
			}
		}
		return true
	})
	return found
}

// exemptName lists interface-mandated methods whose signatures cannot
// take a context.
func exemptName(name string) bool {
	switch name {
	case "Error", "String", "Unwrap":
		return true
	}
	return false
}

// hasLeadingCtx reports whether fd's first parameter is context.Context.
func hasLeadingCtx(fd *ast.FuncDecl) bool {
	params := fd.Type.Params
	if params == nil || len(params.List) == 0 {
		return false
	}
	sel, ok := params.List[0].Type.(*ast.SelectorExpr)
	return ok && pkgIdent(sel.X) == "context" && sel.Sel.Name == "Context"
}

// longRunning reports why fd counts as long-running work: it
// manufactures its own context, or it calls — as a bare identifier or
// through a method/selector — something named like a same-package
// function that takes a leading context (necessarily passing it a
// made-up one, since fd has none to forward). An empty string means it
// does not.
func longRunning(fd *ast.FuncDecl, ctxFuncs map[string]bool) string {
	reason := ""
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			switch {
			case pkgIdent(fun.X) == "context" && (fun.Sel.Name == "Background" || fun.Sel.Name == "TODO"):
				reason = "calls context." + fun.Sel.Name
			case ctxFuncs[fun.Sel.Name] && fun.Sel.Name != fd.Name.Name:
				reason = "calls " + fun.Sel.Name + ", which takes a context"
			}
		case *ast.Ident:
			if ctxFuncs[fun.Name] && fun.Name != fd.Name.Name {
				reason = "calls " + fun.Name + ", which takes a context"
			}
		}
		return true
	})
	return reason
}

// pkgIdent returns the identifier name of e when it is a bare package
// qualifier, else "".
func pkgIdent(e ast.Expr) string {
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
