package daemon

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"sync"
	"time"

	"hpcqc/internal/qrmi"
	"hpcqc/internal/sched"
)

// Client is the user side of the runtime environment: a qrmi.Resource that
// talks to the middleware daemon, so programs written against QRMI run
// unchanged whether they bind a local emulator or the shared on-prem QPU
// behind the daemon.
type Client struct {
	base  *url.URL // parsed once; do builds each request from it
	token string
	auth  string // "Bearer "+token, and not cleared: do reads it unlocked
	class sched.Class
	// Pattern is the optional Table 1 hint sent with submissions.
	Pattern sched.Pattern
	// Partition pins submissions to a named fleet partition. Empty lets
	// the daemon's router place each job.
	Partition string
	// ExpectedQPU optionally declares how long each submission will hold
	// the QPU (zero: the daemon estimates it from the program).
	ExpectedQPU time.Duration
	// Deadline optionally gives each submission a completion deadline,
	// relative to its submit time — what the slo-urgency and edf priority
	// policies schedule by (zero: the per-class fallback contract).
	Deadline time.Duration
	http     *http.Client

	// One status request names every task the client still waits on: watching
	// is the IDs TaskStart returned whose end has not been seen, settled what
	// replies said of those that have ended — final, so TaskStatus answers it
	// without asking and TaskResult consumes it; queued and running are never
	// kept. Each holds at most memoSize, oldest out. mu guards both and token.
	mu       sync.Mutex
	watching []string
	settled  []task
}

// task is what the client reads of a job in a status reply.
type task struct {
	ID     string          `json:"id"`
	State  JobState        `json:"state"`
	Result json.RawMessage `json:"result"`
}

// pushBounded appends v, pushing the oldest entry out of a full list.
func pushBounded[T any](l []T, v T) []T {
	if len(l) == memoSize {
		l = slices.Delete(l, 0, 1)
	}
	return append(l, v)
}

// forget takes the task out of both lists and returns what settled held of it.
func (c *Client) forget(id string) (t task) {
	c.watching = slices.DeleteFunc(c.watching, func(w string) bool { return w == id })
	if i := slices.IndexFunc(c.settled, func(t task) bool { return t.ID == id }); i >= 0 {
		t = c.settled[i]
		c.settled = slices.Delete(c.settled, i, i+1)
	}
	return t
}

// NewClient opens a session with the daemon and returns a bound client.
func NewClient(baseURL, user string, class sched.Class, hc *http.Client) (*Client, error) {
	if baseURL == "" || user == "" {
		return nil, errors.New("daemon: client needs a base URL and user")
	}
	base, err := url.Parse(baseURL)
	if err != nil {
		return nil, err
	}
	if hc == nil {
		hc = http.DefaultClient
	}
	c := &Client{base: base, class: class, http: hc}
	body, _ := json.Marshal(map[string]string{"user": user})
	code, data, err := c.do(http.MethodPost, "/api/v1/sessions", "", body)
	if err != nil {
		return nil, err
	}
	if code != http.StatusCreated {
		return nil, clientErr(data, code)
	}
	var s Session
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, err
	}
	c.token, c.auth = s.Token, "Bearer "+s.Token
	return c, nil
}

var _ qrmi.Resource = (*Client)(nil)

// do sends one request under the base URL and returns the reply's status and body.
func (c *Client) do(method, path, rawQuery string, body []byte) (int, []byte, error) {
	u := *c.base
	u.Path += path
	u.RawQuery = rawQuery
	req := &http.Request{Method: method, URL: &u, Host: u.Host, Header: make(http.Header, 2)}
	if c.auth != "" {
		req.Header["Authorization"] = []string{c.auth}
	}
	if body != nil {
		req.Header["Content-Type"] = []string{"application/json"}
		req.ContentLength = int64(len(body))
		req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
		req.Body, _ = req.GetBody()
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	// A reply of declared length is read into a buffer of that size; one the
	// daemon would not send (it caps bodies both ways) is not trusted to
	// size an allocation.
	if n := resp.ContentLength; n >= 0 && n <= maxBodyBytes {
		data := make([]byte, n)
		_, err = io.ReadFull(resp.Body, data)
		return resp.StatusCode, data, err
	}
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func clientErr(data []byte, code int) error {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return fmt.Errorf("daemon: %s (HTTP %d)", e.Error, code)
	}
	return fmt.Errorf("daemon: HTTP %d", code)
}

// Target implements qrmi.Resource.
func (c *Client) Target() string { return "daemon" }

// SessionToken returns the bound session token.
func (c *Client) SessionToken() string { return c.token }

// Metadata implements qrmi.Resource from the GET /api/v1/devices entry of
// the partition the client is pinned to, or of the first one when unpinned.
func (c *Client) Metadata() (map[string]string, error) {
	devs, err := c.devices()
	if err != nil {
		return nil, err
	}
	i := 0
	if c.Partition != "" {
		i = slices.IndexFunc(devs, func(dev listedDevice) bool { return dev.ID == c.Partition })
	}
	if i < 0 || i >= len(devs) {
		return nil, fmt.Errorf("daemon: no partition %q in the fleet listing", c.Partition)
	}
	return map[string]string{
		"spec":        string(devs[i].Spec),
		"calibration": string(devs[i].Calibration),
		"status":      devs[i].Status,
		"kind":        "daemon",
	}, nil
}

// Acquire implements qrmi.Resource: the session already holds access, so the
// token doubles as the acquire token. When Partition names a partition, the
// acquisition is verified against the daemon's fleet so a bad name fails
// here rather than on every task start.
func (c *Client) Acquire() (string, error) {
	if c.token == "" {
		return "", errors.New("daemon: no session")
	}
	if c.Partition != "" {
		ids, err := c.Partitions()
		if err != nil {
			return "", err
		}
		if !slices.Contains(ids, c.Partition) {
			return "", fmt.Errorf("daemon: unknown partition %q (have: %v)", c.Partition, ids)
		}
	}
	return c.token, nil
}

// Partitions lists the daemon's fleet partition IDs.
func (c *Client) Partitions() ([]string, error) {
	devs, err := c.devices()
	if err != nil {
		return nil, err
	}
	ids := make([]string, len(devs))
	for i, dev := range devs {
		ids[i] = dev.ID
	}
	return ids, nil
}

// listedDevice is what the client reads of one GET /api/v1/devices entry.
type listedDevice struct {
	ID          string          `json:"id"`
	Spec        json.RawMessage `json:"spec"`
	Calibration json.RawMessage `json:"calibration"`
	Status      string          `json:"status"`
}

// devices fetches the fleet listing, one entry per partition.
func (c *Client) devices() ([]listedDevice, error) {
	code, data, err := c.do(http.MethodGet, "/api/v1/devices", "", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, clientErr(data, code)
	}
	var payload struct {
		Devices []listedDevice `json:"devices"`
	}
	if err := json.Unmarshal(data, &payload); err != nil {
		return nil, err
	}
	return payload.Devices, nil
}

// Release implements qrmi.Resource as a no-op; the session persists until
// Close.
func (c *Client) Release(string) error { return nil }

// Close ends the daemon session.
func (c *Client) Close() error {
	code, data, err := c.do(http.MethodDelete, "/api/v1/sessions", "", nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return clientErr(data, code)
	}
	c.mu.Lock()
	c.token, c.watching, c.settled = "", nil, nil
	c.mu.Unlock()
	return nil
}

// TaskStart implements qrmi.Resource. When Partition is set the job is
// pinned to that fleet partition; the daemon rejects unknown names.
func (c *Client) TaskStart(payload []byte) (string, error) {
	req := submitBody{
		Program: payload,
		Class:   c.class.String(),
		Pattern: string(c.Pattern),
		Device:  c.Partition,
	}
	if c.ExpectedQPU > 0 {
		req.ExpectedQPUSeconds = c.ExpectedQPU.Seconds()
	}
	if c.Deadline > 0 {
		req.DeadlineSeconds = c.Deadline.Seconds()
	}
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	code, data, err := c.do(http.MethodPost, "/api/v1/jobs", "", body)
	if err != nil {
		return "", err
	}
	if code != http.StatusAccepted {
		return "", clientErr(data, code)
	}
	var j struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &j); err != nil {
		return "", err
	}
	c.mu.Lock()
	c.watching = pushBounded(c.watching, j.ID)
	c.mu.Unlock()
	return j.ID, nil
}

// TaskStop implements qrmi.Resource. The client forgets the task: its next
// status is the daemon's.
func (c *Client) TaskStop(taskID string) error {
	c.mu.Lock()
	c.forget(taskID)
	c.mu.Unlock()
	code, data, err := c.do(http.MethodDelete, "/api/v1/jobs/"+taskID, "", nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return clientErr(data, code)
	}
	return nil
}

// taskState maps the job's state onto QRMI's.
func taskState(s JobState) qrmi.TaskState {
	switch s {
	case JobQueued:
		return qrmi.StateQueued
	case JobRunning:
		return qrmi.StateRunning
	case JobCompleted:
		return qrmi.StateCompleted
	case JobCancelled:
		return qrmi.StateCancelled
	default:
		// failed and rejected both surface as failed to QRMI consumers;
		// the rejection reason travels in the job's result error.
		return qrmi.StateFailed
	}
}

// TaskStatus implements qrmi.Resource. A terminal state an earlier reply
// brought is answered without a request; otherwise the one request also names
// the other watched tasks, and the reply settles every one that has ended.
func (c *Client) TaskStatus(taskID string) (qrmi.TaskState, error) {
	c.mu.Lock()
	if i := slices.IndexFunc(c.settled, func(t task) bool { return t.ID == taskID }); i >= 0 {
		defer c.mu.Unlock()
		return taskState(c.settled[i].State), nil
	}
	asked := slices.DeleteFunc(slices.Clone(c.watching), func(w string) bool { return w == taskID })
	asked = asked[:min(len(asked), maxAlso)]
	c.mu.Unlock()
	var query string
	if len(asked) > 0 {
		query = url.Values{"also": asked}.Encode()
	}
	code, data, err := c.do(http.MethodGet, "/api/v1/jobs/"+taskID, query, nil)
	if err != nil {
		return "", err
	}
	var r struct {
		task
		Also []task `json:"also"`
	}
	err = json.Unmarshal(data, &r) // an error body has none of the keys
	c.mu.Lock()
	defer c.mu.Unlock()
	if code != http.StatusOK {
		if code == http.StatusNotFound {
			c.forget(taskID)
		}
		return "", clientErr(data, code)
	}
	if err != nil || c.token == "" { // closed meanwhile: nothing is kept
		return taskState(r.State), err
	}
	// A task that ended is settled in place of whatever was held of it; one
	// asked about and not answered is one the daemon no longer knows.
	got := append(r.Also, r.task)
	for _, id := range append(asked, taskID) {
		i := slices.IndexFunc(got, func(t task) bool { return t.ID == id })
		if i >= 0 && !taskState(got[i].State).Terminal() {
			continue
		}
		if c.forget(id); i >= 0 {
			c.settled = pushBounded(c.settled, got[i])
		}
	}
	return taskState(r.State), nil
}

// TaskResult implements qrmi.Resource. A result a status reply already brought
// is handed over, once, and not asked for again; a task asked for is unwatched.
func (c *Client) TaskResult(taskID string) ([]byte, error) {
	c.mu.Lock()
	t := c.forget(taskID)
	c.mu.Unlock()
	if t.Result != nil {
		return t.Result, nil
	}
	code, data, err := c.do(http.MethodGet, "/api/v1/jobs/"+taskID+"/result", "", nil)
	if err != nil {
		return nil, err
	}
	switch code {
	case http.StatusOK:
		return data, nil
	case http.StatusConflict:
		return nil, qrmi.ErrResultNotReady
	default:
		return nil, clientErr(data, code)
	}
}

func init() {
	// daemon: QRMI resource type binding the middleware. Config keys:
	// daemon_endpoint, daemon_user, daemon_class (production|test|dev),
	// workload_hint.
	_ = qrmi.RegisterFactory("daemon", func(cfg map[string]string) (qrmi.Resource, error) {
		class, err := sched.ParseClass(cmp.Or(cfg["daemon_class"], "dev"))
		if err != nil {
			return nil, err
		}
		c, err := NewClient(cfg["daemon_endpoint"], cfg["daemon_user"], class, nil)
		if err != nil {
			return nil, err
		}
		if hint, err := sched.ParsePattern(cfg["workload_hint"]); err == nil {
			c.Pattern = hint
		}
		return c, nil
	})
}
