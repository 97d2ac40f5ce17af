// Command gddr-lint runs the repo's custom static-analysis suite
// (internal/analysis) over the module: contract checks that neither go vet
// nor a test can make, built purely on the standard library's go/parser,
// go/ast, go/types and go/token.
//
//	gddr-lint ./...                    # the CI gate
//	gddr-lint -checks determinism ./internal/rl
//	gddr-lint -json ./...              # one JSON object per finding line
//	gddr-lint -list
//
// Checks:
//
//	determinism  deterministic packages draw randomness from serialisable
//	             internal/rng streams, never the wall clock or map order
//	ctxflow      ctx-accepting functions forward ctx, never mint Background/TODO
//
// A finding is suppressed only by an explicit in-place directive:
//
//	//gddr:allow <check> <reason>
//
// on the offending line or standing alone on the line(s) above it. Exit
// status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"gddr/internal/analysis"
)

// jsonFinding is the -json wire form: one object per line so CI and editors
// can stream-parse the report without holding it whole.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

func main() {
	os.Exit(run())
}

func run() int {
	checks := flag.String("checks", "all", "comma-separated checks to run (default: all)")
	list := flag.Bool("list", false, "list the available checks and exit")
	jsonOut := flag.Bool("json", false, "emit findings as one JSON object per line instead of text")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: gddr-lint [-checks list] [packages]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers, err := analysis.ByName(*checks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gddr-lint:", err)
		return 2
	}
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gddr-lint:", err)
		return 2
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gddr-lint:", err)
		return 2
	}
	pkgs, err := loader.Load(flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gddr-lint:", err)
		return 2
	}
	findings := analysis.Run(pkgs, analysis.DefaultConfig(loader.ModulePath()), analyzers)
	wd, _ := os.Getwd()
	enc := json.NewEncoder(os.Stdout)
	for _, f := range findings {
		name := f.Pos.Filename
		if wd != "" {
			if rel, err := filepath.Rel(wd, name); err == nil && !strings.HasPrefix(rel, "..") {
				name = rel
			}
		}
		if *jsonOut {
			if err := enc.Encode(jsonFinding{
				File:    name,
				Line:    f.Pos.Line,
				Column:  f.Pos.Column,
				Check:   f.Check,
				Message: f.Msg,
			}); err != nil {
				fmt.Fprintln(os.Stderr, "gddr-lint:", err)
				return 2
			}
			continue
		}
		fmt.Printf("%s:%d:%d: %s [%s]\n", name, f.Pos.Line, f.Pos.Column, f.Msg, f.Check)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "gddr-lint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// moduleRoot walks up from the working directory to the enclosing go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
