package stellar

import (
	"io/fs"
	"os"
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
// string literal.
func TestDocsNameWhatExists(t *testing.T) {
	var files []string
	var goSrc strings.Builder
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
		if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			b, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			goSrc.Write(b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	written := goSrc.String()

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

// docRefs lists the repository names a Markdown document cites in code:
// inline spans and the lines of fenced blocks.
func docRefs(doc string) []docRef {
	var refs []docRef
	fenced := false
	for i, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		spans := []string{line}
		if !fenced {
			spans = nil
			for _, m := range inlineCode.FindAllStringSubmatch(line, -1) {
				spans = append(spans, m[1])
			}
		}
		for _, span := range spans {
			for _, tok := range pathToken.FindAllString(span, -1) {
				for _, name := range expandBraces(tok) {
					name = strings.TrimPrefix(strings.TrimPrefix(name, "./"), "stellar/")
					name = strings.TrimRight(strings.TrimSuffix(name, "/..."), "/.,")
					ref := docRef{name: name, span: span, line: i + 1}
					switch {
					case strings.HasSuffix(name, ".go"):
						ref.kind = refGo
					case strings.HasPrefix(name, "internal/"), strings.HasPrefix(name, "cmd/"),
						strings.HasPrefix(name, "examples/"):
						ref.kind = refPath
					case !fenced && name == span && !strings.Contains(name, "/") &&
						(strings.HasSuffix(name, ".json") || strings.HasSuffix(name, ".txt")):
						ref.kind = refData
					default:
						continue
					}
					refs = append(refs, ref)
				}
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
