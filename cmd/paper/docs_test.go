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

// commands lists the repository's commands; each has its flags defined
// in cmd/<name>/main.go.
var commands = []string{"paper", "mdreduce", "mdserve", "pipesched", "mdinfo", "mddiff"}

// definedFlags returns the flag names cmd/<command>/main.go registers,
// read from the source so main need not be restructured to expose them.
// The flag package's own -h and -help are included.
func definedFlags(t *testing.T, command string) map[string]bool {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", command, "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	flags, err := flagsIn(string(src))
	if err != nil {
		t.Fatalf("cmd/%s/main.go: %v", command, err)
	}
	if len(flags) == 0 {
		t.Fatalf("found no flag definitions in cmd/%s/main.go", command)
	}
	flags["h"], flags["help"] = true, true
	return flags
}

// flagsIn returns the flag names a Go source file registers through
// flag.String, flag.Int, flag.Bool and flag.Duration.
func flagsIn(src string) (map[string]bool, error) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", src, 0)
	if err != nil {
		return nil, err
	}
	flags := map[string]bool{}
	var bad error
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
		case "String", "Int", "Bool", "Duration":
		default:
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil {
			bad = err
			return false
		}
		flags[name] = true
		return true
	})
	return flags, bad
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

// commandFlags returns every flag name a `<command> -name ...` command
// line in s passes, with the line it appears on.
func commandFlags(s, command string) map[string][]int {
	invocation := regexp.MustCompile(`\b` + regexp.QuoteMeta(command) + `[ \t]+-`)
	found := map[string][]int{}
	for _, loc := range invocation.FindAllStringIndex(s, -1) {
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
// documented command passes is one its main.go defines, and every
// documented `make` target is a Makefile rule.
func TestDocumentedCommandsExist(t *testing.T) {
	flags := map[string]map[string]bool{}
	for _, command := range commands {
		flags[command] = definedFlags(t, command)
	}
	targets := makeTargets(t)
	for _, doc := range documented {
		text := readDoc(t, doc)
		for _, command := range commands {
			passed := commandFlags(text, command)
			for _, name := range sortedKeys(passed) {
				if !flags[command][name] {
					t.Errorf("%s:%v: %s -%s: flag provided but not defined by cmd/%s",
						doc, passed[name], command, name, command)
				}
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
	flags := sortedKeys(commandFlags(doc, "paper"))
	if want := []string{"all", "fig", "loops", "stats", "table"}; !slices.Equal(flags, want) {
		t.Errorf("commandFlags(paper) = %v, want %v", flags, want)
	}
	other := "go run ./cmd/mdreduce -machine cydra5 -parallel 4 -exact\n" +
		"Start `mdserve -addr :0 -workers 2`; `cmd/mdinfo -file m.mdl` prints F.\n" +
		"mdreduced -bogus and mdserve's flags are not invocations\n"
	for command, want := range map[string][]string{
		"mdreduce": {"exact", "machine", "parallel"},
		"mdserve":  {"addr", "workers"},
		"mdinfo":   {"file"},
		"paper":    {},
	} {
		if got := sortedKeys(commandFlags(other, command)); !slices.Equal(got, want) {
			t.Errorf("commandFlags(%s) = %v, want %v", command, got, want)
		}
	}
	src := "package main\nimport \"flag\"\nvar (\n\td = flag.Duration(\"deadline\", 0, \"\")\n" +
		"\tn = flag.Int(\"n\", 0, \"\")\n\tv = flag.Var(nil, \"var\", \"\")\n\tx = other.String(\"x\", \"\", \"\")\n)\n"
	if got, err := flagsIn(src); err != nil || !got["deadline"] || !got["n"] || len(got) != 2 {
		t.Errorf("flagsIn = %v, %v; want deadline and n only", got, err)
	}
	// Every command's real flag set is read; mdserve's durations count.
	for _, command := range commands {
		if got := definedFlags(t, command); len(got) <= 2 {
			t.Errorf("cmd/%s: only %v found", command, got)
		}
	}
	if mdserve := definedFlags(t, "mdserve"); !mdserve["deadline"] || !mdserve["session-ttl"] {
		t.Errorf("cmd/mdserve flags %v miss its flag.Duration definitions", mdserve)
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
