package neural

import (
	"errors"
	"io/fs"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestDetectorMatchesCPUInfo checks the kernel choice against the
// operating system's account of the CPU: on amd64 Linux, useAVX2 must
// be set exactly when /proc/cpuinfo lists avx2 among the flags. Every bit-identity test
// passes on the portable kernels too, so without this a detector that
// wrongly said "no AVX2" would lose the fast path unseen.
func TestDetectorMatchesCPUInfo(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if errors.Is(err, fs.ErrNotExist) {
		t.Skip("no /proc/cpuinfo")
	}
	if err != nil {
		t.Fatal(err)
	}
	want := false
	for _, line := range strings.Split(string(info), "\n") {
		if key, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "flags" {
			want = slices.Contains(strings.Fields(flags), "avx2")
			break
		}
	}
	if useAVX2 != want || detectAVX2() != want {
		t.Errorf("useAVX2 %v, detectAVX2() %v; /proc/cpuinfo lists avx2: %v", useAVX2, detectAVX2(), want)
	}
}
