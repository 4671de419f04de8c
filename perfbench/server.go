package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is the kernel's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat; it is 100 on every Linux architecture Go targets.
const clockTicks = 100

// server is one `pulphd serve` process.
type server struct {
	cmd  *exec.Cmd
	base string
	log  string
	done chan struct{}
	err  error // the process's exit status, valid once done is closed
}

// startServer execs bin with the serve arguments on a free loopback
// port, its log in logPath. The process is killed if the benchmark
// dies first.
func startServer(bin, logPath string, extra ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := append([]string{"serve", "-demo=false", "-metrics-addr", addr}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, log: logPath, done: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		logf.Close()
		close(s.done)
	}()
	return s, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitReady polls /healthz until it answers 200.
func (s *server) waitReady(ctx context.Context, client *http.Client) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := client.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.done:
			return fmt.Errorf("server exited before ready (%v); log:\n%s", s.err, s.logTail())
		case <-ctx.Done():
			return fmt.Errorf("server not ready: %w; log:\n%s", ctx.Err(), s.logTail())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop sends SIGTERM, lets the server drain and snapshot, and waits
// for it to exit; past a deadline it is killed.
func (s *server) stop() error {
	select {
	case <-s.done:
		return s.err
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
		return errors.New("server ignored SIGTERM; killed")
	}
	return s.err
}

func (s *server) logTail() string {
	b, _ := os.ReadFile(s.log)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// cpu returns the server's utime+stime so far.
func (s *server) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", b)
	}
	var ticks int64
	for _, v := range f[11:13] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// peakRSS returns the server's VmHWM in bytes.
func (s *server) peakRSS() (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// serveDefaults holds the `pulphd serve` flag defaults the in-process
// replay mirrors. They are read from the binary's own usage text, so a
// changed default is replayed as the server runs it.
type serveDefaults struct {
	shards, workers, snapshotEvery int
	walSync                        bool
	backend                        string
	// warnings name the flags the usage text no longer has, with the
	// value the replay assumes for each.
	warnings []string
}

// readServeDefaults parses `bin serve -h`. The flag package prints no
// "(default …)" for a zero default, so a listed flag without one has
// its type's zero value. A flag the replay needs that is missing from
// the usage text is an error, except -workers: only the replay's
// worker-pool size follows it, so its absence is a warning and the
// replay uses nproc workers.
func readServeDefaults(bin string) (serveDefaults, error) {
	out, err := exec.Command(bin, "serve", "-h").CombinedOutput()
	defs := map[string]string{}
	var flag string
	for _, line := range strings.Split(string(out), "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			flag = strings.Fields(rest)[0]
			defs[flag] = ""
		}
		if i := strings.LastIndex(line, "(default "); i >= 0 && flag != "" {
			defs[flag] = strings.Trim(strings.TrimSuffix(line[i+len("(default "):], ")"), `"`)
		}
	}
	if len(defs) == 0 {
		return serveDefaults{}, fmt.Errorf("no flags in `%s serve -h` (%v):\n%s", bin, err, out)
	}
	var d serveDefaults
	var missing []string
	atoi := func(name string) int {
		v, ok := defs[name]
		if !ok {
			missing = append(missing, "-"+name)
			return 0
		}
		if v == "" {
			return 0
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			missing = append(missing, fmt.Sprintf("-%s (default %q)", name, v))
		}
		return n
	}
	d.shards = atoi("shards")
	d.snapshotEvery = atoi("snapshot-every")
	if _, ok := defs["workers"]; ok {
		d.workers = atoi("workers")
	} else {
		d.warnings = append(d.warnings, "`pulphd serve` has no -workers flag; the replay uses nproc workers")
	}
	switch v, ok := defs["wal-sync"]; {
	case !ok:
		missing = append(missing, "-wal-sync")
	case v != "" && v != "true":
		missing = append(missing, fmt.Sprintf("-wal-sync (default %q)", v))
	default:
		d.walSync = v == "true"
	}
	if d.backend = defs["im-backend"]; d.backend == "" {
		missing = append(missing, "-im-backend")
	}
	if len(missing) > 0 {
		return serveDefaults{}, fmt.Errorf("`%s serve -h` has no usable default for %s", bin, strings.Join(missing, ", "))
	}
	return d, nil
}

// fsName names the filesystem holding dir, for the result's
// provenance: the state directory's disk is part of what fleet-evict
// and mixed-open measure.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x58465342: "xfs", 0x9123683E: "btrfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
