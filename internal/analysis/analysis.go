// Package analysis is the repo's custom static-analysis suite: the
// GDDR-specific analyzers built purely on the standard library's go/parser,
// go/ast, go/types and go/token (no golang.org/x/tools, preserving the
// zero-dependency stance). The suite keeps only the contracts no test can
// check, because a test sees what code does, not what it might do:
//
//   - determinism: the deterministic packages draw randomness from
//     serialisable internal/rng streams and never read the wall clock or
//     accumulate floats in map order (DESIGN.md "Training determinism
//     contract").
//   - ctxflow: a function that accepts a context.Context uses it — no fresh
//     context.Background()/TODO() chains severing cancellation.
//
// Contracts a test can hold are held by tests (DESIGN.md "Enforced
// invariants"): the metric name grammar by the registry walks over
// CheckMetricName, the gateway's JSON errors by TestGatewayErrorsAreJSON,
// and the mutex and copy-on-write publication contracts by the -race
// concurrency and lost-update tests.
//
// A finding is suppressible only with an explicit directive on (or on the
// line above) the offending line:
//
//	//gddr:allow <check> <reason>
//
// so every sanctioned exception is documented in place. The cmd/gddr-lint
// driver wires the suite into CI.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// An Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All returns the full suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, CtxFlow}
}

// ByName resolves a comma-separated list of analyzer names.
func ByName(list string) ([]*Analyzer, error) {
	if list == "" || list == "all" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown check %q (have determinism, ctxflow)", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// Config scopes the analyzers to the parts of the module each contract
// governs. DefaultConfig returns the scoping for this repository.
type Config struct {
	// DeterministicPkgs are import paths whose non-test files must draw all
	// randomness from explicit serialisable streams (internal/rng) and may
	// not read the wall clock. Test files of these packages are held only to
	// the global-rand rule: an explicitly seeded local source is already
	// deterministic, and tests never checkpoint.
	DeterministicPkgs []string
	// DeterministicFiles extends the determinism contract to individual
	// files (by basename) of packages that are otherwise exempt — e.g. the
	// root package's train.go but not its serving files, which legitimately
	// time requests.
	DeterministicFiles map[string][]string
}

// DefaultConfig returns the analyzer scoping for the gddr module rooted at
// the given module path.
func DefaultConfig(module string) *Config {
	p := func(rel string) string { return module + "/" + rel }
	return &Config{
		DeterministicPkgs: []string{
			p("internal/rl"), p("internal/nn"), p("internal/gnn"),
			p("internal/env"), p("internal/ad"), p("internal/graph"),
			p("internal/rng"), p("internal/topo"),
		},
		DeterministicFiles: map[string][]string{module: {"train.go"}},
	}
}

func (c *Config) deterministicFileScope(pkgPath string) []string {
	if c.DeterministicFiles == nil {
		return nil
	}
	return c.DeterministicFiles[pkgPath]
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// A Finding is one rule violation at a position.
type Finding struct {
	Check string
	Pos   token.Position
	Msg   string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Msg, f.Check)
}

// A Pass carries one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Cfg      *Config
	report   func(Finding)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Finding{
		Check: p.Analyzer.Name,
		Pos:   p.Pkg.Fset.Position(pos),
		Msg:   fmt.Sprintf(format, args...),
	})
}

// FileName returns the base name of the file containing the node.
func (p *Pass) FileName(n ast.Node) string {
	return filepath.Base(p.Pkg.Fset.Position(n.Pos()).Filename)
}

// IsTestFile reports whether the node sits in a _test.go file.
func (p *Pass) IsTestFile(n ast.Node) bool {
	return strings.HasSuffix(p.FileName(n), "_test.go")
}

// pkgNameOf resolves an identifier to the import path of the package it
// names, or "" when it is not a package qualifier.
func (p *Pass) pkgNameOf(x ast.Expr) string {
	ident, ok := x.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := p.Pkg.Info.Uses[ident].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}

// directivePrefix introduces an in-place suppression comment.
const directivePrefix = "//gddr:allow"

// directive is one parsed //gddr:allow comment.
type directive struct {
	check      string
	reason     string
	line       int
	standalone bool // no code before it on its line: applies to the next line
}

// scanDirectives parses every //gddr:allow comment of the package, keyed by
// file name and line, and reports malformed directives as findings of the
// synthetic "directive" check (a suppression that silently failed to parse
// must not pass CI).
func scanDirectives(pkg *Package, known map[string]bool) (map[string]map[int][]directive, []Finding) {
	index := make(map[string]map[int][]directive)
	var findings []Finding
	for _, file := range pkg.Files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //gddr:allowlist — not this directive
				}
				fields := strings.Fields(rest)
				bad := func(format string, args ...any) {
					findings = append(findings, Finding{
						Check: "directive",
						Pos:   pos,
						Msg:   fmt.Sprintf(format, args...),
					})
				}
				if len(fields) == 0 {
					bad("malformed %s directive: want %q", directivePrefix, directivePrefix+" <check> <reason>")
					continue
				}
				if !known[fields[0]] {
					bad("%s names unknown check %q", directivePrefix, fields[0])
					continue
				}
				if len(fields) < 2 {
					bad("%s %s needs a reason: the directive documents why the exception is sound", directivePrefix, fields[0])
					continue
				}
				d := directive{
					check:      fields[0],
					reason:     strings.Join(fields[1:], " "),
					line:       pos.Line,
					standalone: isLineStart(pkg, pos),
				}
				if index[pos.Filename] == nil {
					index[pos.Filename] = make(map[int][]directive)
				}
				index[pos.Filename][d.line] = append(index[pos.Filename][d.line], d)
			}
		}
	}
	return index, findings
}

// isLineStart reports whether the comment is the first token on its line
// (a standalone directive annotating the following line) rather than a
// trailing comment annotating its own line. It inspects the raw source the
// loader retained: everything before the comment on its line must be
// whitespace.
func isLineStart(pkg *Package, pos token.Position) bool {
	src := pkg.Sources[pos.Filename]
	if src == nil {
		return false
	}
	// pos.Column is 1-based; the bytes preceding the comment on its line are
	// src[offset-(column-1) : offset].
	start := pos.Offset - (pos.Column - 1)
	if start < 0 || pos.Offset > len(src) {
		return false
	}
	return strings.TrimSpace(string(src[start:pos.Offset])) == ""
}

// suppressed reports whether a finding at (file, line) carries an in-scope
// //gddr:allow directive for its check: on the same line, or on an
// immediately preceding block of standalone directive lines.
func suppressed(index map[string]map[int][]directive, f Finding) bool {
	lines := index[f.Pos.Filename]
	if lines == nil {
		return false
	}
	for _, d := range lines[f.Pos.Line] {
		if d.check == f.Check {
			return true
		}
	}
	for line := f.Pos.Line - 1; ; line-- {
		ds := lines[line]
		if len(ds) == 0 {
			return false
		}
		standalone := false
		for _, d := range ds {
			if !d.standalone {
				continue
			}
			standalone = true
			if d.check == f.Check {
				return true
			}
		}
		if !standalone {
			return false
		}
	}
}

// Run executes the analyzers over the packages, applies //gddr:allow
// suppression, and returns the surviving findings in file/line order.
// Every analyzer reports inside the package it runs on, so each package's
// own directive index decides its suppressions.
func Run(pkgs []*Package, cfg *Config, analyzers []*Analyzer) []Finding {
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	var findings []Finding
	for _, pkg := range pkgs {
		index, directiveFindings := scanDirectives(pkg, known)
		findings = append(findings, directiveFindings...)
		for _, a := range analyzers {
			a.Run(&Pass{
				Analyzer: a,
				Pkg:      pkg,
				Cfg:      cfg,
				report: func(f Finding) {
					if !suppressed(index, f) {
						findings = append(findings, f)
					}
				},
			})
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Msg < b.Msg
	})
	return findings
}
