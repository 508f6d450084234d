package main

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// environment is recorded with every result. The machine fields must
// match for two results to be compared; the commit and seed say what was
// run.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	// WALFS is the filesystem type under the WAL directory.
	WALFS string `json:"wal_fs"`
	// Commit is the git commit of the checkout, "none" outside a git
	// repository; Dirty reports uncommitted changes.
	Commit string `json:"commit"`
	Dirty  bool   `json:"dirty"`
	Seed   int64  `json:"seed"`
}

// machineKey is what must be equal for results to be comparable.
func (e environment) machineKey() string {
	return strings.Join([]string{e.GoVersion, strconv.Itoa(e.GOMAXPROCS), strconv.Itoa(e.NProc), e.CPUModel, e.WALFS}, "|")
}

func captureEnv(root, walDir string, seed int64) environment {
	e := environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		WALFS:      fsType(walDir),
		Commit:     "none",
		Seed:       seed,
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "-C", root, "status", "--porcelain", "--untracked-files=no").Output(); err == nil {
			e.Dirty = len(bytes.TrimSpace(st)) > 0
		}
	}
	return e
}

// stealTicks reads the host's cumulative CPU steal time in clock ticks
// (USER_HZ, 100 a second) from /proc/stat: time the machine's virtual
// CPUs were ready to run but the hypervisor ran something else.
func stealTicks() (int64, bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseInt(fields[8], 10, 64)
	return v, err == nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// fsType names the filesystem holding dir from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x01021994: "tmpfs",
		0x794C7630: "overlayfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
		0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}
