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
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"qcloud/internal/backend"
	"qcloud/internal/dispatch"
)

// Fixed worker settings: they are part of the workload definitions.
const (
	workerUnits = 4
	// fillUnits is the pull size of workers that only fill a state
	// directory as set-up: Pull walks every task, so fewer, larger pulls
	// drain sooner, and the WAL holds the same records either way.
	fillUnits  = 64
	workerSim  = 1
	workerPoll = 5 * time.Millisecond
	// statusPoll is how often the driver polls /v1/status to detect a
	// drained queue. Queue.Stats walks every task under the queue lock,
	// so the poll rate is part of the load.
	statusPoll = 50 * time.Millisecond
)

// usage is what a stopped process consumed.
type usage struct {
	cpu   time.Duration
	rssKB int64
}

func (u usage) add(v usage) usage { return usage{u.cpu + v.cpu, u.rssKB + v.rssKB} }

// proc is a running dispatcher or worker. stop ends it gracefully,
// waits until it has exited and reports what it used; it is safe to
// call more than once.
type proc struct {
	url  string // dispatchers only
	stop func() (usage, error)
}

// host starts the programs under test. The benchmark runs them as
// child processes; the tier-1 smoke test runs the same packages in
// process so that `go test` needs no binaries.
type host struct {
	dispatcher func(stateDir string, seed int64, days float64) (*proc, error)
	worker     func(url, name string, units int) (*proc, error)
	analyze    func(seed int64, jobs, workers int) (stdout []byte, u usage, err error)
}

// buildBinaries compiles the three programs the child-process host
// runs, from the module rooted at root, into binDir (an absolute path
// or one relative to root).
func buildBinaries(root, binDir string) error {
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return errors.New("bench: run from the repository root (go.mod not found)")
	}
	cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator),
		"./cmd/qcloud-dispatcher", "./cmd/qcloud-worker", "./cmd/qcloud-analyze")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("bench: building the programs under test: %v\n%s", err, out)
	}
	return nil
}

// childHost runs the binaries in binDir as child processes.
func childHost(binDir string) *host {
	return &host{
		dispatcher: func(stateDir string, seed int64, days float64) (*proc, error) {
			cmd := exec.Command(filepath.Join(binDir, "qcloud-dispatcher"),
				"-listen", "127.0.0.1:0", "-state", stateDir,
				"-seed", fmt.Sprint(seed), "-days", fmt.Sprint(days), "-sim-workers", fmt.Sprint(simWorkers), "-q")
			out, err := cmd.StdoutPipe()
			if err != nil {
				return nil, err
			}
			if err := start(cmd); err != nil {
				return nil, err
			}
			p := childProc(cmd)
			// The dispatcher prints "listening on <addr>" once bound.
			sc := bufio.NewScanner(out)
			for sc.Scan() {
				if addr, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
					p.url = "http://" + addr
					break
				}
			}
			if p.url == "" {
				_, _ = p.stop()
				return nil, errors.New("bench: dispatcher exited before listening")
			}
			go func() { // keep the pipe drained so shutdown lines never block it
				for sc.Scan() {
				}
			}()
			return p, nil
		},
		worker: func(url, name string, units int) (*proc, error) {
			cmd := exec.Command(filepath.Join(binDir, "qcloud-worker"),
				"-server", url, "-name", name, "-units", fmt.Sprint(units),
				"-workers", fmt.Sprint(workerSim), "-poll", workerPoll.String(), "-q")
			if err := start(cmd); err != nil {
				return nil, err
			}
			return childProc(cmd), nil
		},
		analyze: func(seed int64, jobs, workers int) ([]byte, usage, error) {
			cmd := exec.Command(filepath.Join(binDir, "qcloud-analyze"),
				"-seed", fmt.Sprint(seed), "-jobs", fmt.Sprint(jobs), "-workers", fmt.Sprint(workers))
			var out bytes.Buffer
			cmd.Stdout = &out
			if err := start(cmd); err != nil {
				return nil, usage{}, err
			}
			// The program exits by itself, so its high-water mark is
			// sampled while it runs; the mark never falls.
			done := make(chan error, 1)
			go func() { done <- cmd.Wait() }()
			var rss int64
			for {
				select {
				case err := <-done:
					track(cmd, false)
					return out.Bytes(), usage{cpu: cpuOf(cmd), rssKB: rss}, err
				case <-time.After(20 * time.Millisecond):
					rss = max(rss, peakRSSKB(cmd.Process.Pid))
				}
			}
		},
	}
}

// start starts a child that the kernel kills if this process dies
// without reaping it (SIGKILL, a crash), so no daemon outlives a run.
func start(cmd *exec.Cmd) error {
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return err
	}
	track(cmd, true)
	return nil
}

// live holds the child processes not yet reaped, so that a signal or a
// failed run can still end them.
var live = struct {
	sync.Mutex
	cmds map[*exec.Cmd]bool
}{cmds: map[*exec.Cmd]bool{}}

func track(cmd *exec.Cmd, on bool) {
	live.Lock()
	defer live.Unlock()
	if on {
		live.cmds[cmd] = true
	} else {
		delete(live.cmds, cmd)
	}
}

// killChildren kills and reaps whatever is still running.
func killChildren() {
	live.Lock()
	defer live.Unlock()
	for cmd := range live.cmds {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		delete(live.cmds, cmd)
	}
}

// childProc wraps a started command: stop sends SIGTERM (the daemons'
// graceful path), reaps the child and returns its rusage.
func childProc(cmd *exec.Cmd) *proc {
	var once sync.Once
	var u usage
	var err error
	return &proc{stop: func() (usage, error) {
		once.Do(func() {
			u.rssKB = peakRSSKB(cmd.Process.Pid)
			_ = cmd.Process.Signal(syscall.SIGTERM)
			done := make(chan error, 1)
			go func() { done <- cmd.Wait() }()
			select {
			case err = <-done:
			case <-time.After(20 * time.Second):
				_ = cmd.Process.Kill()
				err = fmt.Errorf("bench: %s ignored SIGTERM: %v", filepath.Base(cmd.Path), <-done)
			}
			track(cmd, false)
			u.cpu = cpuOf(cmd)
		})
		return u, err
	}}
}

func cpuOf(cmd *exec.Cmd) time.Duration {
	if cmd.ProcessState == nil {
		return 0
	}
	return cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
}

// peakRSSKB reads a live process's resident-set high-water mark (0 for
// this process) from /proc. A child's rusage maxrss is not used: Go
// starts children with a vfork-style clone, and on exec the kernel
// folds the parent's high-water mark into the child's, so it reads no
// lower than the driver's own size.
func peakRSSKB(pid int) int64 {
	name := "/proc/self/status"
	if pid != 0 {
		name = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(name)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb int64
			_, _ = fmt.Sscan(rest, &kb)
			return kb
		}
	}
	return 0
}

// startInproc runs a dispatcher inside this process on a loopback
// listener.
func startInproc(stateDir string, seed int64, days float64) (*dispatch.Dispatcher, *proc, error) {
	d, err := dispatch.New(dispatch.Config{
		Dir: stateDir, Seed: seed, SimWorkers: simWorkers,
		Start: backend.StudyStart,
		End:   backend.StudyStart.Add(time.Duration(days * 24 * float64(time.Hour))),
	})
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = d.Close()
		return nil, nil, err
	}
	srv := &http.Server{Handler: d.Handler()}
	served := make(chan struct{})
	go func() { _ = srv.Serve(ln); close(served) }()
	var once sync.Once
	var closeErr error
	return d, &proc{url: "http://" + ln.Addr().String(), stop: func() (usage, error) {
		once.Do(func() {
			d.BeginDrain()
			_ = srv.Close()
			<-served
			closeErr = d.Close()
		})
		return usage{}, closeErr
	}}, nil
}

// startInprocWorker runs a worker inside this process.
func startInprocWorker(url, name string, units int) (*proc, error) {
	w, err := dispatch.NewWorker(dispatch.WorkerConfig{
		Server: url, Name: name, MaxUnits: units, SimWorkers: workerSim, Poll: workerPoll,
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	var once sync.Once
	var runErr error
	return &proc{stop: func() (usage, error) {
		once.Do(func() { cancel(); runErr = <-done })
		return usage{}, runErr
	}}, nil
}

// inprocHost runs the dispatcher and worker packages inside this
// process. It reports no rusage and cannot run qcloud-analyze, which
// is a main package.
func inprocHost() *host {
	return &host{
		dispatcher: func(stateDir string, seed int64, days float64) (*proc, error) {
			_, p, err := startInproc(stateDir, seed, days)
			return p, err
		},
		worker: startInprocWorker,
	}
}

// awaitStatus polls the dispatcher until /v1/status answers.
func awaitStatus(cl *dispatch.Client) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		_, err := cl.Status()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: dispatcher never answered /v1/status: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// awaitDrained polls at statusPoll until every submission is terminal.
func awaitDrained(cl *dispatch.Client, jobs int) error {
	deadline := time.Now().Add(150 * time.Second)
	for {
		st, err := cl.Status()
		if err != nil {
			return err
		}
		if st.Terminal() >= jobs {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: drain stalled at %d/%d terminal", st.Terminal(), jobs)
		}
		time.Sleep(statusPoll)
	}
}

// walBytes sums the journal segment files under a queue state
// directory (the checkpoint watermark file is not a segment).
func walBytes(stateDir string) (total int64, err error) {
	err = filepath.Walk(stateDir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(path, ".seg") {
			total += info.Size()
		}
		return err
	})
	return total, err
}
