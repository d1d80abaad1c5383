package experiments

import (
	"bufio"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var idPattern = regexp.MustCompile(`\b[TF]\d+\b`)

// docIDs extracts experiment IDs from a documentation file: for DESIGN.md
// the first cell of experiment-index table rows, for EXPERIMENTS.md the
// IDs named in "## " section headings (which may combine several, e.g.
// "## T3 / F2").
func docIDs(t *testing.T, path string, fromHeadings bool) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer f.Close()
	seen := map[string]bool{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	rowID := regexp.MustCompile(`^\| ([TF]\d+) \|`)
	for sc.Scan() {
		line := sc.Text()
		if fromHeadings {
			if strings.HasPrefix(line, "## ") {
				for _, id := range idPattern.FindAllString(line, -1) {
					seen[id] = true
				}
			}
		} else if m := rowID.FindStringSubmatch(line); m != nil {
			seen[m[1]] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan %s: %v", path, err)
	}
	ids := make([]string, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// TestRegistryMatchesDocs guards against registry/documentation drift:
// every experiment registered in this package must appear in DESIGN.md's
// experiment index and have a section in EXPERIMENTS.md, and vice versa —
// adding an experiment without documenting it (or documenting one that
// does not run) fails the build.
func TestRegistryMatchesDocs(t *testing.T) {
	registered := IDs()
	for _, doc := range []struct {
		path         string
		fromHeadings bool
	}{
		{"../../DESIGN.md", false},
		{"../../EXPERIMENTS.md", true},
	} {
		documented := docIDs(t, doc.path, doc.fromHeadings)
		if len(documented) == 0 {
			t.Fatalf("%s: no experiment IDs found — parser drift?", doc.path)
		}
		docSet := map[string]bool{}
		for _, id := range documented {
			docSet[id] = true
		}
		regSet := map[string]bool{}
		for _, id := range registered {
			regSet[id] = true
			if !docSet[id] {
				t.Errorf("%s: registered experiment %s is undocumented", doc.path, id)
			}
		}
		for _, id := range documented {
			if !regSet[id] {
				t.Errorf("%s: documents %s, which is not in the registry", doc.path, id)
			}
		}
	}
}

// TestVerifySkillMatchesRegistry holds the verify skill's experiment list
// ("IDs T1…T21, F1…F3") to the registry: every range must expand to
// registered IDs, and together they must cover the registry exactly.
func TestVerifySkillMatchesRegistry(t *testing.T) {
	const path = "../../.claude/skills/verify/SKILL.md"
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	list := regexp.MustCompile(`IDs ([TF]\d+…[TF]\d+(?:, [TF]\d+…[TF]\d+)*)`).FindSubmatch(b)
	if list == nil {
		t.Fatalf("%s: no \"IDs X1…Xn, …\" experiment list found — parser drift?", path)
	}
	rangeRE := regexp.MustCompile(`^([TF])(\d+)…([TF])(\d+)$`)
	var listed []string
	for _, r := range strings.Split(string(list[1]), ", ") {
		m := rangeRE.FindStringSubmatch(r)
		lo, _ := strconv.Atoi(m[2])
		hi, _ := strconv.Atoi(m[4])
		if m[1] != m[3] || lo > hi {
			t.Fatalf("%s: malformed range %q", path, r)
		}
		for i := lo; i <= hi; i++ {
			listed = append(listed, m[1]+strconv.Itoa(i))
		}
	}
	sort.Strings(listed)
	if got, want := strings.Join(listed, " "), strings.Join(IDs(), " "); got != want {
		t.Fatalf("%s lists experiments\n  %s\nregistry has\n  %s", path, got, want)
	}
}
