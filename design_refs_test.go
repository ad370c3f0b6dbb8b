package gpustream

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDesignReferences keeps every reference to a DESIGN.md section pointing
// at a section that exists. It walks the module's Go sources, Markdown
// files, CI workflows and skill notes. On each line, every § number that
// follows "DESIGN.md" must name a "## N." heading of DESIGN.md, and so must
// every § number inside DESIGN.md itself. A number with a subsection (§5.2)
// or right after "paper" is the paper's numbering and is not checked.
// CHANGES.md and any Markdown file holding a task list ("- [ ]" items) are
// skipped: they describe changes in the numbering of their time. The test
// also fails on the word "section" after "DESIGN.md", on "§" after a bare
// "DESIGN", and on a reference split across two lines, so the repository
// keeps one form: "DESIGN.md §N", more numbers as ", §M".
func TestDesignReferences(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	headings := designHeadings(string(design))
	if len(headings) == 0 {
		t.Fatal("DESIGN.md has no numbered \"## N.\" headings")
	}
	checked := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && strings.HasPrefix(name, ".") && name != ".github" && name != ".claude" {
				return filepath.SkipDir
			}
			return nil
		}
		if !designRefFile(path) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, ".md") && designTaskItem.Match(data) {
			return nil
		}
		checked++
		for _, p := range designRefProblems(path, string(data), headings) {
			t.Error(p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no file checked")
	}
}

// designRefFile reports whether path is one of the files whose references
// TestDesignReferences checks.
func designRefFile(path string) bool {
	path = filepath.ToSlash(path)
	switch {
	case path == "CHANGES.md":
		return false
	case strings.HasSuffix(path, ".go"), strings.HasSuffix(path, ".md"):
		return !strings.HasPrefix(path, ".claude/") || strings.HasSuffix(path, "/SKILL.md")
	case strings.HasPrefix(path, ".github/workflows/"):
		return strings.HasSuffix(path, ".yml")
	}
	return false
}

var (
	designHeading  = regexp.MustCompile(`^## (\d+)\. `)
	designSection  = regexp.MustCompile(`§(\d+)(\.\d)?`)
	designSpelling = regexp.MustCompile(`DESIGN(\.md)?,? +[Ss]ections? +\d|DESIGN +§`)
	designSplitTo  = regexp.MustCompile(`^(?://+|#+|\*+|>+|-)?\s*(§|[Ss]ections? \d)`)
	designTaskItem = regexp.MustCompile(`(?m)^\s*- \[[ xX]\] `)
)

// designHeadings returns the section numbers DESIGN.md has headings for.
func designHeadings(design string) map[int]bool {
	h := map[int]bool{}
	for _, line := range strings.Split(design, "\n") {
		if m := designHeading.FindStringSubmatch(line); m != nil {
			n, _ := strconv.Atoi(m[1])
			h[n] = true
		}
	}
	return h
}

// designRefProblems lists the references in one file that break the rules
// TestDesignReferences states, as "path:line: problem".
func designRefProblems(path, text string, headings map[int]bool) []string {
	var out []string
	self := filepath.ToSlash(path) == "DESIGN.md"
	lines := strings.Split(text, "\n")
	for i, line := range lines {
		where := path + ":" + strconv.Itoa(i+1) + ": "
		if m := designSpelling.FindString(line); m != "" {
			out = append(out, where+"write \"DESIGN.md §N\", not "+strconv.Quote(m))
		}
		rest := line
		if !self {
			at := strings.Index(line, "DESIGN.md")
			if at < 0 {
				continue
			}
			rest = line[at:]
			if strings.TrimSpace(rest) == "DESIGN.md" && i+1 < len(lines) &&
				designSplitTo.MatchString(strings.TrimSpace(lines[i+1])) {
				out = append(out, where+"keep \"DESIGN.md §N\" on one line")
			}
		}
		for _, m := range designSection.FindAllStringSubmatchIndex(rest, -1) {
			if m[4] >= 0 || strings.HasSuffix(strings.ToLower(rest[:m[0]]), "paper ") {
				continue // the paper's own numbering
			}
			n, _ := strconv.Atoi(rest[m[2]:m[3]])
			if !headings[n] {
				out = append(out, where+"DESIGN.md has no section "+strconv.Itoa(n))
			}
		}
	}
	return out
}
