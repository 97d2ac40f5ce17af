package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// fixtureLoader type-checks the packages under testdata/src the way the real
// Loader handles the module: fixture-local imports (e.g. the "metrics"
// stand-in) resolve from source, everything else goes through the shared
// standard-library source importer.
type fixtureLoader struct {
	root  string
	fset  *token.FileSet
	std   types.Importer
	cache map[string]*Package
}

func newFixtureLoader() *fixtureLoader {
	fset := token.NewFileSet()
	return &fixtureLoader{
		root:  filepath.Join("testdata", "src"),
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		cache: make(map[string]*Package),
	}
}

func (l *fixtureLoader) Import(path string) (*types.Package, error) {
	if info, err := os.Stat(filepath.Join(l.root, path)); err == nil && info.IsDir() {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

func (l *fixtureLoader) load(path string) (*Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(l.root, path)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	sources := make(map[string][]byte)
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		full := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(full)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(l.fset, full, src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		sources[full] = src
	}
	info := newInfo()
	var errs []string
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { errs = append(errs, err.Error()) },
	}
	tpkg, _ := conf.Check(path, l.fset, files, info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("type-checking fixture %s:\n\t%s", path, strings.Join(errs, "\n\t"))
	}
	pkg := &Package{
		ImportPath: path,
		BasePath:   path,
		Dir:        dir,
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		Sources:    sources,
	}
	l.cache[path] = pkg
	return pkg, nil
}

// fixtureConfig scopes the analyzers to the fixture package names the way
// DefaultConfig scopes them to module paths.
func fixtureConfig() *Config {
	return &Config{
		DeterministicPkgs:  []string{"determinism"},
		DeterministicFiles: map[string][]string{"detfiles": {"scoped.go"}},
	}
}

var fixturePackages = []string{
	"ctxflow", "detfiles", "determinism",
}

var fixturesOnce struct {
	sync.Once
	pkgs []*Package
	err  error
}

// loadFixtures loads every fixture package once per test binary; the std
// source importer dominates the cost, so the result is shared.
func loadFixtures(t *testing.T) []*Package {
	t.Helper()
	fixturesOnce.Do(func() {
		l := newFixtureLoader()
		for _, name := range fixturePackages {
			pkg, err := l.load(name)
			if err != nil {
				fixturesOnce.err = fmt.Errorf("loading fixture %s: %w", name, err)
				return
			}
			fixturesOnce.pkgs = append(fixturesOnce.pkgs, pkg)
		}
	})
	if fixturesOnce.err != nil {
		t.Fatal(fixturesOnce.err)
	}
	return fixturesOnce.pkgs
}

// wantRE extracts `want "regexp"` expectation markers from fixture source
// lines; the pattern applies to a finding on the marker's own line.
var wantRE = regexp.MustCompile(`want "((?:[^"\\]|\\.)*)"`)

type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

func parseExpectations(t *testing.T, pkgs []*Package) []*expectation {
	t.Helper()
	var exps []*expectation
	for _, pkg := range pkgs {
		for file, src := range pkg.Sources {
			for i, line := range strings.Split(string(src), "\n") {
				for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", file, i+1, m[1], err)
					}
					exps = append(exps, &expectation{file: file, line: i + 1, pattern: re})
				}
			}
		}
	}
	return exps
}

// TestAnalyzersGolden runs the full suite over the fixture packages and
// matches findings against want expectations in both directions: a finding
// with no want fails (false positive), and a want with no finding fails
// (false negative — which is exactly what "this fixture fails without its
// analyzer" means: dropping an analyzer orphans its wants).
func TestAnalyzersGolden(t *testing.T) {
	pkgs := loadFixtures(t)
	findings := Run(pkgs, fixtureConfig(), All())
	exps := parseExpectations(t, pkgs)
outer:
	for _, f := range findings {
		for _, e := range exps {
			if !e.matched && e.file == f.Pos.Filename && e.line == f.Pos.Line && e.pattern.MatchString(f.Msg) {
				e.matched = true
				continue outer
			}
		}
		t.Errorf("unexpected finding: %s", f)
	}
	for _, e := range exps {
		if !e.matched {
			t.Errorf("%s:%d: no finding matched want %q", e.file, e.line, e.pattern)
		}
	}
}

// TestEachAnalyzerFires proves every analyzer is load-bearing on its own:
// run the suite one analyzer at a time and require at least one finding from
// it, so a regression that silences a whole check cannot hide behind the
// others.
func TestEachAnalyzerFires(t *testing.T) {
	pkgs := loadFixtures(t)
	for _, a := range All() {
		findings := Run(pkgs, fixtureConfig(), []*Analyzer{a})
		fired := false
		for _, f := range findings {
			if f.Check == a.Name {
				fired = true
				break
			}
		}
		if !fired {
			t.Errorf("analyzer %s produced no findings on its fixtures", a.Name)
		}
	}
}

// parseSyntheticPackage builds a Package without type information — enough
// for the directive scanner, which is purely syntactic.
func parseSyntheticPackage(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "synthetic.go", []byte(src), parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{
		ImportPath: "synthetic",
		BasePath:   "synthetic",
		Fset:       fset,
		Files:      []*ast.File{f},
		Sources:    map[string][]byte{"synthetic.go": []byte(src)},
	}
}

// TestMalformedDirectivesAreFindings: a suppression that silently failed to
// parse must not pass CI, so malformed //gddr:allow comments are findings of
// the synthetic "directive" check.
func TestMalformedDirectivesAreFindings(t *testing.T) {
	src := `package synthetic

func f() {
	//gddr:allow
	//gddr:allow nosuchcheck because reasons
	//gddr:allow determinism
	//gddr:allowlist is a different word, not this directive
	_ = 0 //gddr:allow determinism a valid trailing directive
}
`
	pkg := parseSyntheticPackage(t, src)
	known := map[string]bool{"determinism": true}
	index, findings := scanDirectives(pkg, known)
	wants := []string{
		"malformed //gddr:allow directive",
		`names unknown check "nosuchcheck"`,
		"needs a reason",
	}
	if len(findings) != len(wants) {
		t.Fatalf("got %d directive findings, want %d: %v", len(findings), len(wants), findings)
	}
	for i, want := range wants {
		if findings[i].Check != "directive" {
			t.Errorf("finding %d check = %q, want %q", i, findings[i].Check, "directive")
		}
		if !strings.Contains(findings[i].Msg, want) {
			t.Errorf("finding %d = %q, want substring %q", i, findings[i].Msg, want)
		}
	}
	lines := index["synthetic.go"]
	if len(lines) != 1 {
		t.Fatalf("indexed %d directive lines, want 1 (only the valid trailing one): %v", len(lines), lines)
	}
	for line, ds := range lines {
		if line != 8 || len(ds) != 1 || ds[0].check != "determinism" || ds[0].standalone {
			t.Errorf("valid directive indexed as line %d %+v; want a trailing determinism directive on line 8", line, ds)
		}
	}
}

// TestSuppressionBlockWalk: a finding is suppressed by a same-check directive
// on its own line or anywhere in the immediately preceding block of
// standalone directive lines — and by nothing else.
func TestSuppressionBlockWalk(t *testing.T) {
	src := `package synthetic

func f() {
	//gddr:allow determinism first line of the directive block
	//gddr:allow ctxflow second line covers another check
	_ = 0
	_ = 1
}
`
	pkg := parseSyntheticPackage(t, src)
	known := map[string]bool{"determinism": true, "ctxflow": true}
	index, findings := scanDirectives(pkg, known)
	if len(findings) != 0 {
		t.Fatalf("unexpected directive findings: %v", findings)
	}
	at := func(line int, check string) Finding {
		return Finding{Check: check, Pos: token.Position{Filename: "synthetic.go", Line: line}}
	}
	if !suppressed(index, at(6, "determinism")) {
		t.Error("line 6 determinism: directive two lines up in the block must suppress")
	}
	if !suppressed(index, at(6, "ctxflow")) {
		t.Error("line 6 ctxflow: adjacent directive line must suppress")
	}
	if suppressed(index, at(6, "metricnames")) {
		t.Error("line 6 metricnames: the block names other checks; must not suppress")
	}
	if suppressed(index, at(7, "determinism")) {
		t.Error("line 7: the block annotates line 6 only; must not suppress")
	}
}

// TestCheckMetricName covers the shared grammar checker both analyzers and
// the runtime registry walk rely on.
func TestCheckMetricName(t *testing.T) {
	cases := []struct {
		kind, name string
		wantErr    string // "" means the name is valid
	}{
		{"counter", "gddr_router_requests_total", ""},
		{"histogram", "gddr_lp_solve_seconds", ""},
		{"gauge", "gddr_engine_agent_generation", ""},
		{"counter", "gddr_fleet_shed_total", ""},
		{"histogram", "gddr_fleet_route_seconds", ""},
		{"gauge", "gddr_fleet_tenants", ""},
		{"counter", "gddr_router_requests", "must end in _total"},
		{"gauge", "gddr_train_policy_loss_total", "must not end in _total"},
		{"histogram", "gddr_router_latency_ms", `non-base unit "ms"`},
		{"histogram", "gddr_train_step_minutes", `non-base unit "minutes"`},
		{"counter", "gddr_router_request_count", `non-base unit "count"`},
		{"counter", "foo_router_requests_total", "gddr_ namespace prefix"},
		{"gauge", "gddr_frobnicator_depth", `unknown subsystem "frobnicator"`},
		{"gauge", "GDDR_router_depth", "does not match"},
		{"gauge", "gddr_router", "does not match"},
	}
	for _, c := range cases {
		err := CheckMetricName(c.kind, c.name)
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("CheckMetricName(%q, %q) = %v, want nil", c.kind, c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("CheckMetricName(%q, %q) = %v, want error containing %q", c.kind, c.name, err, c.wantErr)
		}
	}
}
