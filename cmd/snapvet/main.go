// Command snapvet runs the repository's static-analysis suite
// (internal/analysis): five analyzers that mechanically enforce the
// conventions the snap-stabilization reproduction depends on —
// determinism of sim-reachable code, transport lock order, pooled-buffer
// flush scoping, sentinel-error wrapping, and loss-event attribution —
// plus the subset of `go vet` the transports lean on (copylocks,
// atomic).
//
// Usage:
//
//	snapvet [packages]            # default ./...
//	snapvet -list                 # describe the analyzers
//	snapvet -only determinism,senterr ./...
//	snapvet -novet ./...          # skip the go vet passes
//
// Exit status is 0 when the tree is clean, 1 when any diagnostic (or
// go vet finding) survives, 2 on operational failure. Diagnostics are
// suppressed site-by-site with a justified directive:
//
//	//lint:ignore <analyzer> <justification>
//
// on the flagged line or the line above it (see DESIGN.md §14 for the
// escape-hatch policy).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"github.com/snapstab/snapstab/internal/analysis"
)

func main() {
	var (
		list  = flag.Bool("list", false, "describe the analyzers and exit")
		only  = flag.String("only", "", "comma-separated analyzer subset to run")
		novet = flag.Bool("novet", false, "skip the go vet copylocks/atomic passes")
	)
	flag.Parse()

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		keep := make(map[string]bool)
		for _, name := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(name)] = true
		}
		var sel []*analysis.Analyzer
		for _, a := range analyzers {
			if keep[a.Name] {
				sel = append(sel, a)
				delete(keep, a.Name)
			}
		}
		for name := range keep {
			fmt.Fprintf(os.Stderr, "snapvet: unknown analyzer %q\n", name)
			os.Exit(2)
		}
		analyzers = sel
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "snapvet: %v\n", err)
		os.Exit(2)
	}
	diags := analysis.Run(pkgs, analyzers)
	for _, d := range diags {
		fmt.Println(d)
	}

	vetFailed := false
	if !*novet {
		// The two vet passes the transports lean on: copylocks (a copied
		// Node or group would silently fork mu/mbMu) and atomic.
		args := append([]string{"vet", "-copylocks", "-atomic"}, patterns...)
		cmd := exec.Command("go", args...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			vetFailed = true
		}
	}

	if len(diags) > 0 || vetFailed {
		os.Exit(1)
	}
}
