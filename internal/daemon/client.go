package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
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
	base  string
	token string
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

	// The status reply of a completed job carries its result, and the usual
	// caller asks for exactly that result next (qrmi.RunProgram does):
	// TaskStatus keeps the one pair its latest reply carried, TaskResult
	// consumes it on an ID match and otherwise asks the daemon. At most one
	// result is held, whatever the number of jobs served.
	mu         sync.Mutex
	memoID     string
	memoResult []byte
}

// NewClient opens a session with the daemon and returns a bound client.
func NewClient(baseURL, user string, class sched.Class, hc *http.Client) (*Client, error) {
	if baseURL == "" || user == "" {
		return nil, errors.New("daemon: client needs a base URL and user")
	}
	if hc == nil {
		hc = http.DefaultClient
	}
	c := &Client{base: baseURL, class: class, http: hc}
	body, _ := json.Marshal(map[string]string{"user": user})
	code, data, err := c.do(http.MethodPost, "/api/v1/sessions", body)
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
	c.token = s.Token
	return c, nil
}

var _ qrmi.Resource = (*Client)(nil)

func (c *Client) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
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

// Metadata implements qrmi.Resource via GET /api/v1/device.
func (c *Client) Metadata() (map[string]string, error) {
	code, data, err := c.do(http.MethodGet, "/api/v1/device", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, clientErr(data, code)
	}
	var payload struct {
		Spec        json.RawMessage `json:"spec"`
		Calibration json.RawMessage `json:"calibration"`
		Status      string          `json:"status"`
	}
	if err := json.Unmarshal(data, &payload); err != nil {
		return nil, err
	}
	return map[string]string{
		"spec":        string(payload.Spec),
		"calibration": string(payload.Calibration),
		"status":      payload.Status,
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
		found := false
		for _, id := range ids {
			if id == c.Partition {
				found = true
				break
			}
		}
		if !found {
			return "", fmt.Errorf("daemon: unknown partition %q (have: %v)", c.Partition, ids)
		}
	}
	return c.token, nil
}

// Partitions lists the daemon's fleet partition IDs.
func (c *Client) Partitions() ([]string, error) {
	code, data, err := c.do(http.MethodGet, "/api/v1/devices", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, clientErr(data, code)
	}
	var payload struct {
		Devices []struct {
			ID string `json:"id"`
		} `json:"devices"`
	}
	if err := json.Unmarshal(data, &payload); err != nil {
		return nil, err
	}
	ids := make([]string, len(payload.Devices))
	for i, dev := range payload.Devices {
		ids[i] = dev.ID
	}
	return ids, nil
}

// Release implements qrmi.Resource as a no-op; the session persists until
// Close.
func (c *Client) Release(string) error { return nil }

// Close ends the daemon session.
func (c *Client) Close() error {
	code, data, err := c.do(http.MethodDelete, "/api/v1/sessions", nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return clientErr(data, code)
	}
	c.token = ""
	c.remember("", nil)
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
	code, data, err := c.do(http.MethodPost, "/api/v1/jobs", body)
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
	return j.ID, nil
}

// TaskStop implements qrmi.Resource.
func (c *Client) TaskStop(taskID string) error {
	code, data, err := c.do(http.MethodDelete, "/api/v1/jobs/"+taskID, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return clientErr(data, code)
	}
	return nil
}

// TaskStatus implements qrmi.Resource.
func (c *Client) TaskStatus(taskID string) (qrmi.TaskState, error) {
	code, data, err := c.do(http.MethodGet, "/api/v1/jobs/"+taskID, nil)
	if err != nil {
		return "", err
	}
	if code != http.StatusOK {
		return "", clientErr(data, code)
	}
	var j struct {
		State  string          `json:"state"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(data, &j); err != nil {
		return "", err
	}
	c.remember(taskID, j.Result)
	switch JobState(j.State) {
	case JobQueued:
		return qrmi.StateQueued, nil
	case JobRunning:
		return qrmi.StateRunning, nil
	case JobCompleted:
		return qrmi.StateCompleted, nil
	case JobCancelled:
		return qrmi.StateCancelled, nil
	default:
		// failed and rejected both surface as failed to QRMI consumers;
		// the rejection reason travels in the job's result error.
		return qrmi.StateFailed, nil
	}
}

// remember replaces the memo with what the latest status reply carried: a
// result, or nothing.
func (c *Client) remember(taskID string, result []byte) {
	c.mu.Lock()
	c.memoID, c.memoResult = taskID, result
	c.mu.Unlock()
}

// take hands over, once, the result remembered for taskID.
func (c *Client) take(taskID string) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.memoID != taskID {
		return nil
	}
	res := c.memoResult
	c.memoID, c.memoResult = "", nil
	return res
}

// TaskResult implements qrmi.Resource. A result the latest TaskStatus reply
// already carried is not asked for again.
func (c *Client) TaskResult(taskID string) ([]byte, error) {
	if res := c.take(taskID); res != nil {
		return res, nil
	}
	code, data, err := c.do(http.MethodGet, "/api/v1/jobs/"+taskID+"/result", nil)
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
		class, err := parseClass(cfg["daemon_class"])
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
