package bench

import (
	"bufio"
	"embed"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// GoldenSeed is the seed the golden digests are captured at; runs at
// other seeds print their digest for comparison instead of checking it.
const GoldenSeed = 42

//go:embed golden
var goldenFS embed.FS

// goldenName is the label a digest is stored under: the workload name,
// with a ".smoke" suffix for the smoke size.
func goldenName(workload string, smoke bool) string {
	if smoke {
		return workload + ".smoke"
	}
	return workload
}

// golden returns the stored digest for a workload and size, read from
// golden/<workload>.sha256 — lines in sha256sum's "<hex>  <name>" form.
func golden(workload string, smoke bool) (string, error) {
	f, err := goldenFS.Open("golden/" + workload + ".sha256")
	if err != nil {
		return "", err
	}
	defer f.Close()
	want := goldenName(workload, smoke)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if hex, name, ok := strings.Cut(sc.Text(), "  "); ok && name == want {
			return hex, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("golden/%s.sha256 has no %q line", workload, want)
}

// writeGolden stores both sizes' digests for a workload under dir.
func writeGolden(dir, workload, full, smoke string) error {
	body := fmt.Sprintf("%s  %s\n%s  %s\n", full, goldenName(workload, false), smoke, goldenName(workload, true))
	return os.WriteFile(filepath.Join(dir, workload+".sha256"), []byte(body), 0o644)
}
