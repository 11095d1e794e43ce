package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// spanLog records spans around the benchmark's own calls into each layer
// (name, start, end, parent, workload, seed), in memory, and writes them
// as JSON lines when the run ends. Times are nanoseconds since the log
// was created.
type spanLog struct {
	workload string
	seed     int64
	origin   time.Time

	mu   sync.Mutex
	list []span
}

type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a root
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
}

func newSpans(workload string, seed int64) *spanLog {
	return &spanLog{workload: workload, seed: seed, origin: time.Now()}
}

// start opens a span under parent and returns its id (ids start at 1).
func (l *spanLog) start(name string, parent int) int {
	now := time.Since(l.origin).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.list) + 1
	l.list = append(l.list, span{ID: id, Parent: parent, Name: name, StartNS: now, Workload: l.workload, Seed: l.seed})
	return id
}

// end closes span id.
func (l *spanLog) end(id int) {
	now := time.Since(l.origin).Nanoseconds()
	l.mu.Lock()
	l.list[id-1].EndNS = now
	l.mu.Unlock()
}

// timed runs fn inside a span and returns its duration.
func (l *spanLog) timed(name string, parent int, fn func()) time.Duration {
	id := l.start(name, parent)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	l.end(id)
	return d
}

// write stores the spans as JSON lines under dir and returns the path.
func (l *spanLog) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", l.workload, l.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	l.mu.Lock()
	for _, s := range l.list {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	l.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
