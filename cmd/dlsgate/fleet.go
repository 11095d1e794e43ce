package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// fleetGate is the chaos job's rolling-restart gate. Crash restarts reuse
// the slot's port; only a rolling restart moves a replica to its
// alternate port (base+replicas+slot). So "every addr on port 8083 or
// above and the whole fleet healthy" proves the rolling restart replaced
// every replica of the job's 3-replica fleet on base port 8080.
func fleetGate(dir string, stdout, stderr io.Writer) int {
	return pollFleet("http://127.0.0.1:9090/fleet", dir, 90*time.Second, stdout, stderr)
}

// fleetStatus is dlsctl's /fleet document, as far as the gate reads it.
// Missing fields stay nil, and such a document does not pass.
type fleetStatus struct {
	Replicas, Healthy *int
	Fleet             []struct {
		Slot, Restarts int
		Addr           string
	}
}

// pollFleet polls url every half second until the fleet has rolled, then
// writes the document to fleet.json in dir. Unreachable or unreadable
// polls retry; it fails once timeout has passed.
func pollFleet(url, dir string, timeout time.Duration, stdout, stderr io.Writer) int {
	client := &http.Client{Timeout: 2 * time.Second}
	for deadline := time.Now().Add(timeout); ; time.Sleep(500 * time.Millisecond) {
		if body, fleet := getFleet(client, url); fleet != nil && fleet.rolled() {
			var out bytes.Buffer
			err := json.Indent(&out, body, "", "  ")
			if err == nil {
				err = os.WriteFile(filepath.Join(dir, "fleet.json"), out.Bytes(), 0o644)
			}
			if err != nil {
				fmt.Fprintf(stderr, "dlsgate: writing fleet.json: %v\n", err)
				return 2
			}
			slots := make([]string, len(fleet.Fleet))
			for i, s := range fleet.Fleet {
				slots[i] = fmt.Sprintf("slot %d -> %s (restarts=%d)", s.Slot, s.Addr, s.Restarts)
			}
			fmt.Fprintln(stdout, "rolling restart complete:", strings.Join(slots, ", "))
			return 0
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(stderr, "dlsgate: rolling restart did not converge within %v\n", timeout)
			return 1
		}
	}
}

// getFleet fetches and decodes one /fleet document (nil on failure).
func getFleet(client *http.Client, url string) ([]byte, *fleetStatus) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	var fleet fleetStatus
	if err != nil || json.Unmarshal(body, &fleet) != nil {
		return nil, nil
	}
	return body, &fleet
}

// rolled reports whether the whole fleet is healthy on alternate ports.
func (f *fleetStatus) rolled() bool {
	if f.Replicas == nil || f.Healthy == nil || f.Fleet == nil || *f.Healthy != *f.Replicas {
		return false
	}
	for _, s := range f.Fleet {
		port, err := strconv.Atoi(s.Addr[strings.LastIndexByte(s.Addr, ':')+1:])
		if err != nil || port < 8083 {
			return false
		}
	}
	return true
}
