package server_test

// End-to-end coverage of the storage-tier API surface: chunk dedup
// across same-workload recordings, pinning, retention GC, and the
// store-stats endpoint.

import (
	"bytes"
	"io"
	"net/http"
	"testing"

	"doubleplay/internal/server"
	"doubleplay/internal/store"
)

func getRecording(t *testing.T, url string) (int, []byte, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode, data, resp.Header.Get("X-Recording-Digest")
}

func TestStorageTierPinGCAndStats(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 2, QueueDepth: 8})

	// Two recordings of the same workload at different seeds share
	// chunks in the store.
	specB := fastSpec()
	specB["seed"] = 12
	idA := submit(t, ts, fastSpec())
	idB := submit(t, ts, specB)
	waitDone(t, ts, idA)
	waitDone(t, ts, idB)

	codeA, dataA, digA := getRecording(t, ts.URL+"/jobs/"+idA+"/recording")
	codeB, dataB, _ := getRecording(t, ts.URL+"/jobs/"+idB+"/recording")
	if codeA != http.StatusOK || codeB != http.StatusOK {
		t.Fatalf("GET recordings: %d, %d", codeA, codeB)
	}
	if store.Digest(dataA) != digA {
		t.Fatalf("recording A bytes do not hash to the advertised digest")
	}

	code, stats := doJSON(t, "GET", ts.URL+"/admin/store", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /admin/store: %d %v", code, stats)
	}
	logical := int64(stats["logical_bytes"].(float64))
	unique := int64(stats["unique_raw_bytes"].(float64))
	if logical != int64(len(dataA)+len(dataB)) {
		t.Fatalf("logical_bytes = %d, want %d", logical, len(dataA)+len(dataB))
	}
	if unique >= logical {
		t.Fatalf("no dedup across seeds: unique %d >= logical %d", unique, logical)
	}

	// Pin A, then age everything out: A survives, B is collected.
	if code, v := doJSON(t, "POST", ts.URL+"/jobs/"+idA+"/pin", nil); code != http.StatusOK || v["pinned"] != true {
		t.Fatalf("POST pin: %d %v", code, v)
	}
	code, rep := doJSON(t, "POST", ts.URL+"/admin/gc", map[string]any{"max_age_ms": 1})
	if code != http.StatusOK {
		t.Fatalf("POST /admin/gc: %d %v", code, rep)
	}
	if rep["pinned"].(float64) != 1 || rep["manifests_removed"].(float64) != 1 {
		t.Fatalf("gc report: %v", rep)
	}
	codeA, againA, _ := getRecording(t, ts.URL+"/jobs/"+idA+"/recording")
	if codeA != http.StatusOK || !bytes.Equal(againA, dataA) {
		t.Fatalf("pinned recording damaged by GC (status %d)", codeA)
	}
	if codeB, _, _ := getRecording(t, ts.URL+"/jobs/"+idB+"/recording"); codeB != http.StatusNotFound {
		t.Fatalf("collected recording still served: %d", codeB)
	}
	// A collected recording cannot be pinned back.
	if code, v := doJSON(t, "POST", ts.URL+"/jobs/"+idB+"/pin", nil); code != http.StatusNotFound {
		t.Fatalf("pin of a collected recording: %d %v", code, v)
	}

	// A survivor still replays by id after the sweep.
	repID := submit(t, ts, map[string]any{"kind": "replay", "recording_job": idA, "mode": "sequential"})
	waitDone(t, ts, repID)

	// Epoch-range extraction reads through the chunked handle.
	resp, err := http.Get(ts.URL + "/recordings/" + idA + "/epochs/0..1")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET epochs after GC: %v (status %v)", err, resp.Status)
	}
	resp.Body.Close()

	// Unpin, collect again: A goes too, and the store ends empty.
	if code, v := doJSON(t, "DELETE", ts.URL+"/jobs/"+idA+"/pin", nil); code != http.StatusOK || v["pinned"] != false {
		t.Fatalf("DELETE pin: %d %v", code, v)
	}
	if code, rep = doJSON(t, "POST", ts.URL+"/admin/gc", map[string]any{"max_age_ms": 1}); code != http.StatusOK {
		t.Fatalf("second gc: %d %v", code, rep)
	}
	code, stats = doJSON(t, "GET", ts.URL+"/admin/store", nil)
	if code != http.StatusOK || stats["chunks"].(float64) != 0 || stats["manifests"].(float64) != 0 {
		t.Fatalf("store not empty after full GC: %v", stats)
	}

	// Malformed GC requests are rejected.
	if code, _ := doJSON(t, "POST", ts.URL+"/admin/gc", map[string]any{"max_age_ms": -1}); code != http.StatusBadRequest {
		t.Fatalf("negative max_age_ms accepted: %d", code)
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/jobs/nope/pin", nil); code != http.StatusNotFound {
		t.Fatalf("pin of unknown job: %d", code)
	}
}
