package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// repoRoot is the repository root relative to this package's directory,
// where `go test` runs the test binary.
const repoRoot = "../.."

// documented lists the files whose commands must exist: the user-facing
// docs, the Makefile and the verify skill notes. Historical logs
// (CHANGES.md, ROADMAP.md) record commands that were retired on purpose
// and are not scanned.
var documented = []string{
	"README.md",
	"DESIGN.md",
	"EXPERIMENTS.md",
	"Makefile",
	".claude/skills/verify/SKILL.md",
}

// definedFlags returns the flag names main.go registers through
// flag.String, flag.Int and flag.Bool, read from the source so main
// need not be restructured to expose them.
func definedFlags(t *testing.T) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		switch sel.Sel.Name {
		case "String", "Int", "Bool":
		default:
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil {
			t.Fatal(err)
		}
		flags[name] = true
		return true
	})
	if len(flags) == 0 {
		t.Fatal("found no flag definitions in main.go")
	}
	return flags
}

// makeTargets returns the rule names the Makefile defines.
func makeTargets(t *testing.T) map[string]bool {
	t.Helper()
	rule := regexp.MustCompile(`(?m)^([A-Za-z][\w.-]*)\s*:([^=]|$)`)
	targets := map[string]bool{}
	for _, m := range rule.FindAllStringSubmatch(readDoc(t, "Makefile"), -1) {
		targets[m[1]] = true
	}
	if len(targets) == 0 {
		t.Fatal("found no rules in the Makefile")
	}
	return targets
}

func readDoc(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(repoRoot, name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// commandTail returns the rest of a command line: the text after pos up
// to the first newline, closing backtick, comment, shell operator or
// markdown table cell.
func commandTail(s string, pos int) string {
	rest := s[pos:]
	if i := strings.IndexAny(rest, "\n`#|;&<>()\\"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

var (
	paperCmd = regexp.MustCompile(`\bpaper[ \t]+-`)
	flagName = regexp.MustCompile(`^--?([A-Za-z][\w-]*)`)
	codeSpan = regexp.MustCompile("(?s)```.*?```|`[^`\n]+`")
	makeCmd  = regexp.MustCompile(`\bmake[ \t]+`)
	// shellComment matches a comment in a code block, which may mention
	// make in prose ("# = make check: fmt-check + ...").
	shellComment = regexp.MustCompile(`#[^\n]*`)
	// makeHeader matches the Makefile's usage header, "#   make target".
	makeHeader = regexp.MustCompile(`(?m)^#[ \t]+make[ \t]+([A-Za-z][\w.-]*)`)
)

// blank replaces s by as many spaces, keeping byte offsets intact.
func blank(s string) string { return strings.Repeat(" ", len(s)) }

// paperFlags returns every flag name a `paper -name ...` command in s
// passes, with the line it appears on.
func paperFlags(s string) map[string][]int {
	found := map[string][]int{}
	for _, loc := range paperCmd.FindAllStringIndex(s, -1) {
		line := strings.Count(s[:loc[0]], "\n") + 1
		for _, tok := range strings.Fields(commandTail(s, loc[1]-1)) {
			if m := flagName.FindStringSubmatch(tok); m != nil {
				name := strings.TrimRight(m[1], "-")
				found[name] = append(found[name], line)
			}
		}
	}
	return found
}

// makeInvocations returns every target a backticked or fenced `make ...`
// command in s names (plus the Makefile's own usage header), with the
// line it appears on.
func makeInvocations(s string) map[string][]int {
	found := map[string][]int{}
	add := func(target string, pos int) {
		found[target] = append(found[target], strings.Count(s[:pos], "\n")+1)
	}
	for _, span := range codeSpan.FindAllStringIndex(s, -1) {
		code := shellComment.ReplaceAllStringFunc(s[span[0]:span[1]], blank)
		for _, loc := range makeCmd.FindAllStringIndex(code, -1) {
			for _, tok := range strings.Fields(commandTail(code, loc[1])) {
				if strings.HasPrefix(tok, "-") || strings.Contains(tok, "=") {
					continue // an option or a variable assignment
				}
				add(tok, span[0]+loc[0])
			}
		}
	}
	for _, m := range makeHeader.FindAllStringSubmatchIndex(s, -1) {
		add(s[m[2]:m[3]], m[0])
	}
	return found
}

// TestDocumentedCommandsExist keeps the docs honest: every flag a
// documented `paper` command passes is one main.go defines, and every
// documented `make` target is a Makefile rule.
func TestDocumentedCommandsExist(t *testing.T) {
	flags := definedFlags(t)
	flags["h"], flags["help"] = true, true // the flag package's own
	targets := makeTargets(t)
	for _, doc := range documented {
		text := readDoc(t, doc)
		passed := paperFlags(text)
		for _, name := range sortedKeys(passed) {
			if !flags[name] {
				t.Errorf("%s:%v: paper -%s: flag provided but not defined by cmd/paper", doc, passed[name], name)
			}
		}
		invoked := makeInvocations(text)
		for _, target := range sortedKeys(invoked) {
			if !targets[target] {
				t.Errorf("%s:%v: make %s: no such Makefile target", doc, invoked[target], target)
			}
		}
	}
}

// TestDocScannersFindCommands pins the scanners themselves, so a
// regression in them cannot make the docs check pass vacuously.
func TestDocScannersFindCommands(t *testing.T) {
	doc := "Run `cmd/paper -table 6 -stats`; or\n" +
		"```\ngo run ./cmd/paper    -all -loops=60 # not -comment\nmake check FUZZTIME=1s fuzz-smoke\n" +
		"make verify   # = make all: build + test\n```\n" +
		"| Table 6 | ... | `cmd/paper -fig 1`; test `TestFigure1` |\n" +
		"prose that does not make sense is not a make command\n"
	flags := sortedKeys(paperFlags(doc))
	if want := []string{"all", "fig", "loops", "stats", "table"}; !slices.Equal(flags, want) {
		t.Errorf("paperFlags = %v, want %v", flags, want)
	}
	targets := sortedKeys(makeInvocations(doc))
	if want := []string{"check", "fuzz-smoke", "verify"}; !slices.Equal(targets, want) {
		t.Errorf("makeInvocations = %v, want %v", targets, want)
	}
	if got := sortedKeys(makeInvocations("#   make profile   pprof\n")); !slices.Equal(got, []string{"profile"}) {
		t.Errorf("makeInvocations(header) = %v, want [profile]", got)
	}
}

func sortedKeys(m map[string][]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
