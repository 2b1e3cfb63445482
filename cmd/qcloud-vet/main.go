// qcloud-vet runs the repo's determinism and hot-path static-analysis
// suite (internal/lint) over the named packages and exits non-zero on
// any diagnostic. It is the mechanical enforcement of the invariants
// every PR's bit-identity pins rely on: no map-order-dependent output,
// no wall-clock reads in sim paths, no ambient RNG, no allocations in
// //qcloud:noalloc kernels, no event emission outside the owned
// machineSim loops, and no declaration that no binary reaches
// (unreachable, which judges only a load holding every main package).
//
// Usage:
//
//	qcloud-vet [-list] [packages]
//
// Packages default to ./... (resolved against the enclosing module
// root, so the tool behaves identically from any directory inside the
// repo). CI runs it as a required gate next to go vet.
package main

import (
	"flag"
	"fmt"
	"os"

	"qcloud/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and their package scopes, then exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: qcloud-vet [-list] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Runs the qcloud determinism/hot-path analyzers (default packages: ./...).\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			scope := "all packages"
			if a.Program != nil {
				scope = "whole module"
			} else if len(a.Scope) > 0 {
				scope = fmt.Sprint(a.Scope)
			}
			fmt.Printf("%-12s %s\n%14s scope: %s\n", a.Name, a.Doc, "", scope)
		}
		return
	}

	loader, err := lint.NewLoader("")
	if err != nil {
		fmt.Fprintln(os.Stderr, "qcloud-vet:", err)
		os.Exit(2)
	}
	pkgs, err := loader.Load(flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qcloud-vet:", err)
		os.Exit(2)
	}
	diags, err := lint.Vet(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qcloud-vet:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "qcloud-vet: %d diagnostic(s)\n", len(diags))
		os.Exit(1)
	}
}
