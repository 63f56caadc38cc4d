package stellar

import (
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameWhatExists keeps the guides honest about the tree. Every Go
// file and every internal/, cmd/ or examples/ path a guide puts in
// backticks or a fenced block must exist, and so must a .json or .txt
// name standing alone in backticks — unless the program itself writes it:
// a crash-bundle member such as `slots.json` shows as that name in a Go
// string literal. Every -flag a guide or a skill note gives to a
// stellar-* command must be one that binary (or that stellar-obs
// subcommand) lists under -h; a flag standing alone at the start of a code
// span must be listed by one of them, or be a go or make flag in toolFlags.
// Every -table=NAME must be a table `stellar-obs tables -list` lists (or
// all), and every TestX, BenchmarkX or FuzzX named in code must be a func
// in some _test.go file.
func TestDocsNameWhatExists(t *testing.T) {
	var files []string
	var goSrc, testSrc strings.Builder
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch p {
			case ".git", ".bench_build", filepath.Join("bench", "out"):
				return filepath.SkipDir
			}
			return nil
		}
		p = filepath.ToSlash(p)
		files = append(files, p)
		if strings.HasSuffix(p, ".go") {
			b, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			if strings.HasSuffix(p, "_test.go") {
				testSrc.Write(b)
			} else {
				goSrc.Write(b)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	written := goSrc.String()
	testFuncs := make(map[string]bool)
	for _, m := range testFunc.FindAllStringSubmatch(testSrc.String(), -1) {
		testFuncs[m[1]] = true
	}

	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range docRefs(string(raw)) {
			ok := false
			switch ref.kind {
			case refGo, refPath:
				ok = anyFileMatches(files, ref.name, ref.kind == refPath)
			case refData:
				ok = anyFileMatches(files, ref.name, false) || strings.Contains(written, `"`+ref.name+`"`)
			}
			if !ok {
				t.Errorf("%s:%d: `%s` names %s, which is not in the repository", doc, ref.line, ref.span, ref.name)
			}
		}
	}

	bin := buildCommands(t)
	cmds := commandFlags(bin)
	if len(cmds) < 4 || len(cmds["stellar-node"]) == 0 {
		t.Fatalf("read no flags from the binaries' -h output: %v", cmds)
	}
	tables := map[string]bool{"all": true}
	list, _ := exec.Command(filepath.Join(bin, "stellar-obs"), "tables", "-list").Output()
	for _, line := range strings.Split(string(list), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			tables[f[0]] = true
		}
	}
	if len(tables) < 2 {
		t.Fatalf("stellar-obs tables -list listed no tables:\n%s", list)
	}
	skills, err := filepath.Glob(".*/skills/*/SKILL.md")
	if err != nil || len(skills) == 0 {
		t.Fatalf("no skill notes found (%v)", err)
	}
	for _, doc := range append([]string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}, skills...) {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			for _, m := range tableArg.FindAllStringSubmatch(line, -1) {
				if !tables[m[1]] {
					t.Errorf("%s:%d: names -table=%s, which stellar-obs tables -list does not list", doc, i+1, m[1])
				}
			}
		}
		for _, span := range codeSpans(string(raw)) {
			for _, name := range testName.FindAllString(span.text, -1) {
				if !testFuncs[name] {
					t.Errorf("%s:%d: `%s` names %s, which no _test.go file declares", doc, span.line, span.text, name)
				}
			}
		}
		for _, use := range docFlagUses(string(raw)) {
			if use.cmd != "" {
				if !cmds[use.cmd][use.flag] {
					t.Errorf("%s:%d: gives -%s to %s, which does not register it", doc, use.line, use.flag, use.cmd)
				}
				continue
			}
			ok := toolFlags[use.flag]
			for _, flags := range cmds {
				ok = ok || flags[use.flag]
			}
			if !ok {
				t.Errorf("%s:%d: names -%s, which no stellar-* command registers", doc, use.line, use.flag)
			}
		}
	}
}

// toolFlags are the go test and make flags the guides name on their own.
var toolFlags = map[string]bool{"race": true}

var (
	stellarCmd  = regexp.MustCompile(`^(?:.*/)?(stellar-(?:node|sim|chaos|obs))$`)
	helpFlag    = regexp.MustCompile(`(?m)^\s+-([\w-]+)`)
	obsCommand  = regexp.MustCompile(`(?m)^  ([a-z]+)\s{2,}`)
	inlineSpan  = regexp.MustCompile("`([^`\n]+(?:\n[^`\n]+)*)`")
	flagToken   = regexp.MustCompile(`^--?[A-Za-z]`)
	commandEnds = map[string]bool{"|": true, "||": true, "&&": true, ";": true, "&": true}
	tableArg    = regexp.MustCompile(`-table=(\w+)`)
	testName    = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z]\w*`)
	testFunc    = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)[A-Z]\w*)\(`)
)

// buildCommands builds the stellar-* binaries into a temporary directory
// and returns it.
func buildCommands(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	build := exec.Command("go", "build", "-o", dir,
		"./cmd/stellar-node", "./cmd/stellar-sim", "./cmd/stellar-chaos", "./cmd/stellar-obs")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir
}

// commandFlags reads the flags each stellar-* binary in dir registers from
// its -h output, with one entry per stellar-obs subcommand ("stellar-obs
// fbas").
func commandFlags(dir string) map[string]map[string]bool {
	help := func(bin string, args ...string) string {
		// -h exits 0 or 2 depending on the binary; the listing is the same.
		out, _ := exec.Command(filepath.Join(dir, bin), append(args, "-h")...).CombinedOutput()
		return string(out)
	}
	parse := func(usage string) map[string]bool {
		flags := make(map[string]bool)
		for _, m := range helpFlag.FindAllStringSubmatch(usage, -1) {
			flags[m[1]] = true
		}
		return flags
	}
	cmds := make(map[string]map[string]bool)
	for _, bin := range []string{"stellar-node", "stellar-sim", "stellar-chaos"} {
		cmds[bin] = parse(help(bin))
	}
	for _, m := range obsCommand.FindAllStringSubmatch(help("stellar-obs"), -1) {
		cmds["stellar-obs "+m[1]] = parse(help("stellar-obs", m[1]))
	}
	return cmds
}

// flagUse is one flag a document gives: to a command ("stellar-node",
// "stellar-obs fbas"), or alone at the start of a code span (cmd "").
type flagUse struct {
	cmd, flag string
	line      int
}

// docFlagUses lists the flags a Markdown document gives in code: inline
// spans, which may wrap across lines, and fenced command lines, joined
// where a line ends in a backslash.
func docFlagUses(doc string) []flagUse {
	var uses []flagUse
	lines := strings.Split(doc, "\n")
	prose := make([]string, len(lines))
	fenced := false
	for i := 0; i < len(lines); i++ {
		if strings.HasPrefix(strings.TrimSpace(lines[i]), "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			prose[i] = lines[i]
			continue
		}
		start, cmd := i, lines[i]
		for strings.HasSuffix(cmd, "\\") && i+1 < len(lines) {
			i++
			cmd = strings.TrimSuffix(cmd, "\\") + " " + lines[i]
		}
		uses = append(uses, spanFlags(cmd, start+1, false)...)
	}
	text := strings.Join(prose, "\n")
	for _, m := range inlineSpan.FindAllStringSubmatchIndex(text, -1) {
		line := strings.Count(text[:m[0]], "\n") + 1
		uses = append(uses, spanFlags(text[m[2]:m[3]], line, true)...)
	}
	return uses
}

// spanFlags lists the flags one span of code gives to the stellar-*
// commands in it, up to the end of each command (a pipe, a list operator,
// a redirect or a comment), and the flag it starts with when inline.
func spanFlags(span string, line int, inline bool) []flagUse {
	name := func(tok string) string {
		tok = strings.TrimLeft(tok, "-")
		if i := strings.IndexByte(tok, '='); i >= 0 {
			tok = tok[:i]
		}
		return tok
	}
	var uses []flagUse
	toks := strings.Fields(span)
	if inline && len(toks) > 0 && flagToken.MatchString(toks[0]) {
		uses = append(uses, flagUse{flag: name(toks[0]), line: line})
	}
	for i := 0; i < len(toks); i++ {
		m := stellarCmd.FindStringSubmatch(toks[i])
		if m == nil {
			continue
		}
		cmd := m[1]
		if cmd == "stellar-obs" && i+1 < len(toks) && !flagToken.MatchString(toks[i+1]) {
			i++
			cmd += " " + toks[i]
		}
		for ; i+1 < len(toks); i++ {
			tok := toks[i+1]
			if commandEnds[tok] || strings.ContainsRune("#<>", rune(tok[0])) || strings.HasPrefix(tok, "2>") {
				break
			}
			if flagToken.MatchString(tok) {
				uses = append(uses, flagUse{cmd: cmd, flag: name(tok), line: line})
			}
		}
	}
	return uses
}

type refKind int

const (
	refGo   refKind = iota // a Go file: bare name, path tail, or glob
	refPath                // a path under internal/, cmd/ or examples/
	refData                // a bare .json or .txt file name alone in its span
)

type docRef struct {
	kind       refKind
	name, span string
	line       int
}

var (
	inlineCode = regexp.MustCompile("`([^`]+)`")
	pathToken  = regexp.MustCompile(`[A-Za-z0-9_./{},*-]+`)
	braces     = regexp.MustCompile(`\{([^{}]*)\}`)
)

// codeSpan is one piece of code a Markdown document shows: an inline span
// or one line of a fenced block.
type codeSpan struct {
	text   string
	line   int
	fenced bool
}

// codeSpans lists a Markdown document's inline spans and fenced lines.
func codeSpans(doc string) []codeSpan {
	var spans []codeSpan
	fenced := false
	for i, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			spans = append(spans, codeSpan{text: line, line: i + 1, fenced: true})
			continue
		}
		for _, m := range inlineCode.FindAllStringSubmatch(line, -1) {
			spans = append(spans, codeSpan{text: m[1], line: i + 1})
		}
	}
	return spans
}

// docRefs lists the repository names a Markdown document cites in code:
// inline spans and the lines of fenced blocks.
func docRefs(doc string) []docRef {
	var refs []docRef
	for _, cs := range codeSpans(doc) {
		span := cs.text
		for _, tok := range pathToken.FindAllString(span, -1) {
			for _, name := range expandBraces(tok) {
				name = strings.TrimPrefix(strings.TrimPrefix(name, "./"), "stellar/")
				name = strings.TrimRight(strings.TrimSuffix(name, "/..."), "/.,")
				ref := docRef{name: name, span: span, line: cs.line}
				switch {
				case strings.HasSuffix(name, ".go"):
					ref.kind = refGo
				case strings.HasPrefix(name, "internal/"), strings.HasPrefix(name, "cmd/"),
					strings.HasPrefix(name, "examples/"):
					ref.kind = refPath
				case !cs.fenced && name == span && !strings.Contains(name, "/") &&
					(strings.HasSuffix(name, ".json") || strings.HasSuffix(name, ".txt")):
					ref.kind = refData
				default:
					continue
				}
				refs = append(refs, ref)
			}
		}
	}
	return refs
}

// expandBraces expands one level of shell-style alternatives:
// cmd/{a,b} → cmd/a, cmd/b.
func expandBraces(tok string) []string {
	m := braces.FindStringSubmatchIndex(tok)
	if m == nil {
		return []string{tok}
	}
	var out []string
	for _, alt := range strings.Split(tok[m[2]:m[3]], ",") {
		out = append(out, expandBraces(tok[:m[0]]+alt+tok[m[1]:])...)
	}
	return out
}

// anyFileMatches reports whether a repository file is named by the glob
// pattern: matched against the file's first path elements when rooted (a
// directory names every file below it), otherwise against its last ones
// (so "seal.go", "ledger/seal.go" and "s*.go" all name
// internal/ledger/seal.go).
func anyFileMatches(files []string, pattern string, rooted bool) bool {
	depth := strings.Count(pattern, "/") + 1
	for _, f := range files {
		parts := strings.Split(f, "/")
		if len(parts) < depth {
			continue
		}
		if rooted {
			parts = parts[:depth]
		} else {
			parts = parts[len(parts)-depth:]
		}
		if ok, _ := path.Match(pattern, strings.Join(parts, "/")); ok {
			return true
		}
	}
	return false
}
