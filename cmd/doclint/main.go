// Command doclint enforces doc-comment conventions beyond go vet: every
// package it is pointed at must have a package comment, and every exported
// identifier (types, functions, methods, consts, vars) must carry a doc
// comment. CI runs it over every package of the module:
//
//	go run ./cmd/doclint $(go list -f '{{.Dir}}' ./...)
//
// Exit status: 0 clean, 1 findings, 2 usage or parse errors.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: doclint package-dir...")
		os.Exit(2)
	}
	findings := 0
	for _, dir := range os.Args[1:] {
		n, err := lintDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
			os.Exit(2)
		}
		findings += n
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d finding(s)\n", findings)
		os.Exit(1)
	}
}

// lintDir parses one package directory (tests excluded) and reports
// missing doc comments.
func lintDir(dir string) (int, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return 0, err
	}
	findings := 0
	report := func(pos token.Pos, format string, args ...any) {
		findings++
		p := fset.Position(pos)
		fmt.Printf("%s:%d: %s\n", filepath.ToSlash(p.Filename), p.Line, fmt.Sprintf(format, args...))
	}
	for _, pkg := range pkgs {
		if !hasPackageComment(pkg) {
			// Attribute the finding to the package clause of the first file.
			for _, f := range pkg.Files {
				report(f.Package, "package %s has no package comment", pkg.Name)
				break
			}
		}
		for _, f := range pkg.Files {
			lintFile(f, report)
		}
	}
	return findings, nil
}

// hasPackageComment reports whether any file of the package documents it.
func hasPackageComment(pkg *ast.Package) bool {
	for _, f := range pkg.Files {
		if f.Doc != nil && len(strings.TrimSpace(f.Doc.Text())) > 0 {
			return true
		}
	}
	return false
}

// lintFile checks every exported top-level declaration of one file.
func lintFile(f *ast.File, report func(token.Pos, string, ...any)) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || !exportedReceiver(d) {
				continue
			}
			if d.Doc == nil {
				report(d.Pos(), "exported %s %s has no doc comment", funcKind(d), d.Name.Name)
			}
		case *ast.GenDecl:
			lintGenDecl(d, report)
		}
	}
}

// funcKind names a FuncDecl for messages ("function" or "method").
func funcKind(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}

// exportedReceiver reports whether a method's receiver type is itself
// exported (unexported receivers are internal API even if the method name
// is capitalized).
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return true
		}
	}
}

// lintGenDecl checks const/var/type declarations: each exported spec must
// be documented on the spec, by a trailing line comment, or by the group's
// doc comment.
func lintGenDecl(d *ast.GenDecl, report func(token.Pos, string, ...any)) {
	if d.Tok == token.IMPORT {
		return
	}
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && s.Doc == nil && d.Doc == nil && s.Comment == nil {
				report(s.Pos(), "exported type %s has no doc comment", s.Name.Name)
			}
		case *ast.ValueSpec:
			for _, name := range s.Names {
				if !name.IsExported() {
					continue
				}
				if s.Doc == nil && d.Doc == nil && s.Comment == nil {
					report(name.Pos(), "exported %s %s has no doc comment", strings.ToLower(d.Tok.String()), name.Name)
				}
				break // one finding per spec line is enough
			}
		}
	}
}
