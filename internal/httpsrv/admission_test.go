package httpsrv

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"psd/internal/admission"
)

// newTestServer mounts an already-built Server; the caller keeps
// ownership of s (Close is idempotent, so tests may close it early).
func newTestServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Mux())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts
}

// TestAdmissionUtilizationGate wires the [Abdelzaher et al.]-style
// utilization guard in front of the class queues: oversized demand gets
// 503 with per-class accounting, admitted demand flows through, and the
// load estimator never sees the shed traffic.
func TestAdmissionUtilizationGate(t *testing.T) {
	ub, err := admission.NewUtilizationBound(0.5, 100)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := fastServer(t, Config{
		Deltas:    []float64{1},
		Admission: ub,
		Window:    1e9,
	})
	// Bound 0.5 × tau 100 ⇒ at most 50 work units of instantaneous
	// credit: a size-60 request must be shed, a size-1 admitted.
	if r := getJSON(t, ts.URL+"/?class=0&size=60", nil); r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("oversized request got %d, want 503", r.StatusCode)
	}
	var resp Response
	if r := getJSON(t, ts.URL+"/?class=0&size=1", &resp); r.StatusCode != http.StatusOK {
		t.Fatalf("small request got %d, want 200", r.StatusCode)
	}
	var doc MetricsDocument
	getJSON(t, ts.URL+"/metrics", &doc)
	if doc.AdmissionPolicy != "utilization" {
		t.Fatalf("admission_policy = %q", doc.AdmissionPolicy)
	}
	cm := doc.Classes[0]
	if cm.RejectedAdmission != 1 || cm.RejectedQueueFull != 0 || cm.RejectedWork != 60 {
		t.Fatalf("rejection accounting wrong: %+v", cm)
	}
}

// TestAdmissionTokenBucket exercises the per-class work-rate contract:
// a class that burns its burst credit is shed while its bucket refills.
func TestAdmissionTokenBucket(t *testing.T) {
	// Near-zero refill: the burst is all the credit the test sees.
	tb, err := admission.NewTokenBucket([]float64{1e-9, 1e-9}, 5)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := fastServer(t, Config{
		Deltas:    []float64{1, 2},
		Admission: tb,
		Window:    1e9,
	})
	if r := getJSON(t, ts.URL+"/?class=0&size=4", nil); r.StatusCode != http.StatusOK {
		t.Fatalf("first size-4 got %d, want 200 (burst 5)", r.StatusCode)
	}
	if r := getJSON(t, ts.URL+"/?class=0&size=4", nil); r.StatusCode != http.StatusServiceUnavailable {
		t.Fatal("second size-4 should exhaust class 0's bucket")
	}
	// Class isolation: class 1's bucket is untouched.
	if r := getJSON(t, ts.URL+"/?class=1&size=4", nil); r.StatusCode != http.StatusOK {
		t.Fatal("class 1 must not be taxed by class 0's flood")
	}
	var doc MetricsDocument
	getJSON(t, ts.URL+"/metrics", &doc)
	if doc.AdmissionPolicy != "tokenbucket" {
		t.Fatalf("admission_policy = %q", doc.AdmissionPolicy)
	}
	if doc.Classes[0].RejectedAdmission != 1 || doc.Classes[1].RejectedAdmission != 0 {
		t.Fatalf("per-class rejection accounting wrong: %+v", doc.Classes)
	}
	// Class 0's estimator window saw only its one admitted request.
	arr, work := s.classes[0].pendingWindow()
	if arr != 1 || work != 4 {
		t.Fatalf("class 0 estimator window saw (%v, %v), want (1, 4): rejected demand leaked in", arr, work)
	}
}

// TestQueueFullRefundsAdmission pins the charge-then-drop leak: a
// request that clears the admission gate but bounces off a full class
// queue must hand its credit back, or the gate double-counts demand
// that was never served and sheds later admissible traffic.
func TestQueueFullRefundsAdmission(t *testing.T) {
	tb, err := admission.NewTokenBucket([]float64{1e-9}, 12)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Deltas:        []float64{1},
		TimeUnit:      200 * time.Millisecond, // size-4 job ≈ 800ms: worker stays busy
		Window:        1e9,
		QueueCapacity: 1,
		Admission:     tb,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, s)

	// Three size-4 requests, sequentially admitted (12 credits): the
	// first occupies the worker, the second the queue slot, the third is
	// admitted, bounces off the full queue, and must be refunded.
	done := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Get(ts.URL + "/?class=0&size=4")
			if err == nil {
				resp.Body.Close()
			}
			done <- struct{}{}
		}()
	}
	// Wait until both are inside the system (one serving, one queued).
	deadline := time.Now().Add(5 * time.Second)
	for {
		admitted, _ := s.classes[0].pendingWindow()
		if admitted == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("requests never entered the system: admitted=%v", admitted)
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := http.Get(ts.URL + "/?class=0&size=4")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("third request got %d, want 503 (queue full)", resp.StatusCode)
	}
	// Three admits charged 12, the bounced one's 4 came back: 4 credits
	// left. Without the refund a size-3.9 request bounces (refill rate is
	// ~0); after a double refund a further size-0.2 one still fits.
	if !tb.Admit(0, 3.9, 0) || tb.Admit(0, 0.2, 0) {
		t.Fatal("credit after queue-full bounce is not ~4 (refund missing or doubled)")
	}
	var doc MetricsDocument
	getJSON(t, ts.URL+"/metrics", &doc)
	if doc.Classes[0].RejectedQueueFull != 1 || doc.Classes[0].RejectedAdmission != 0 {
		t.Fatalf("rejection accounting wrong: %+v", doc.Classes[0])
	}
	s.Close() // fail the in-flight jobs fast so the clients return
	<-done
	<-done
}

// TestRejectedTrafficDoesNotFeedEstimator pins the overload-bias fix on
// the queue-full path: with a capacity-1 queue and a slow worker, the
// flood's 503s must not inflate the estimator's window counters — only
// requests that actually entered the queue count.
func TestRejectedTrafficDoesNotFeedEstimator(t *testing.T) {
	s, err := New(Config{
		Deltas:        []float64{1},
		TimeUnit:      200 * time.Millisecond, // size-10 job ≈ 2s: worker stays busy
		Window:        1e9,
		QueueCapacity: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, s)

	const n = 6
	var wg sync.WaitGroup
	codes := make(chan int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/?class=0&size=10")
			if err == nil {
				codes <- resp.StatusCode
				resp.Body.Close()
			}
		}()
	}

	// Wait until every request either queued or bounced: the worker holds
	// one job, the queue one more, so at least n-2 rejections must land.
	deadline := time.Now().Add(5 * time.Second)
	for {
		rejected := s.met.rejQueueFull.At(0).Load()
		arrivals, work := s.classes[0].pendingWindow()
		if rejected+int64(arrivals) == n {
			if rejected < n-2 {
				t.Fatalf("only %d queue-full rejections for %d requests against capacity 1", rejected, n)
			}
			if work != 10*arrivals {
				t.Fatalf("window work %v inconsistent with %v admitted size-10 requests", work, arrivals)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("accounting never converged: rejected=%d arrivals=%v", rejected, arrivals)
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.Close() // fail the in-flight jobs fast so the clients return
	wg.Wait()
}
