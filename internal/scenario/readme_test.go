package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// manifestKeys collects every JSON key reachable from t: the tagged fields
// of t and, recursively, of the structs its fields point to or hold in
// slices.
func manifestKeys(t reflect.Type, keys map[string]bool) {
	for t.Kind() == reflect.Pointer || t.Kind() == reflect.Slice {
		t = t.Elem()
	}
	if t.Kind() != reflect.Struct {
		return
	}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "" || name == "-" {
			continue
		}
		keys[name] = true
		manifestKeys(f.Type, keys)
	}
}

// TestReadmeManifestTableInSync is the docs drift gate for README's
// manifest table: every JSON key a manifest accepts must appear in
// backticks somewhere in the table, and every key the table's first column
// names must be one a manifest accepts. CI's docs job runs this test
// explicitly; adding or removing a manifest field without updating the
// table fails the build.
func TestReadmeManifestTableInSync(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatalf("reading README.md: %v", err)
	}
	const header = "| field | default | meaning |"
	_, rest, ok := strings.Cut(string(raw), header+"\n")
	if !ok {
		t.Fatalf("README.md has no manifest table (header %q)", header)
	}
	var rows []string
	for _, line := range strings.Split(rest, "\n") {
		if !strings.HasPrefix(line, "|") {
			break
		}
		rows = append(rows, line)
	}
	if len(rows) < 2 {
		t.Fatalf("README.md manifest table has no rows")
	}
	rows = rows[1:] // the |---| separator

	want := map[string]bool{}
	manifestKeys(reflect.TypeOf(Manifest{}), want)
	code := regexp.MustCompile("`([^`]+)`")
	inTable := map[string]bool{}
	for _, row := range rows {
		for _, m := range code.FindAllStringSubmatch(row, -1) {
			inTable[m[1]] = true
		}
		first := strings.SplitN(strings.Trim(row, "|"), "|", 2)[0]
		for _, m := range code.FindAllStringSubmatch(first, -1) {
			if !want[m[1]] {
				t.Errorf("README.md manifest table documents %q, which no manifest field accepts", m[1])
			}
		}
	}
	var missing []string
	for k := range want {
		if !inTable[k] {
			missing = append(missing, k)
		}
	}
	sort.Strings(missing)
	for _, k := range missing {
		t.Errorf("README.md manifest table never mentions manifest key %q", k)
	}
}
