// Command qctl is the hosting-site administration CLI for the middleware
// daemon: device status, fleet listing, job listing, maintenance windows,
// recalibration and the gated low-level control operations (paper §2.5,
// §3.6).
//
// Usage:
//
//	qctl -endpoint http://node:8080 -token ADMIN_TOKEN status
//	qctl ... devices
//	qctl ... jobs
//	qctl ... op recalibrate|qa_check|maintenance_on|maintenance_off
//	qctl ... metrics
//	qctl ... trace <job-id>
//	qctl ... trace
//
// devices renders the fleet from /api/v1/devices — one line per partition
// with status, utilization and queue depth by class — through a throwaway
// user session, so it needs no admin token.
//
// jobs renders the admin job listing as a table — one line per job with
// class, state and device; jobs shed by the admission stage show as
// "rejected" with the policy's reason in the DETAIL column.
//
// trace <job-id> renders the job's lifecycle trace from the daemon's flight
// recorder as a stage waterfall — where the job's seconds went (admission,
// queueing, dispatch, execution) with the policy annotations per stage. A
// bare trace lists every trace the recorder still holds. Like devices, it
// uses a throwaway session.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"text/tabwriter"

	"hpcqc/internal/trace"
)

func main() {
	endpoint := flag.String("endpoint", "http://127.0.0.1:8080", "daemon endpoint")
	token := flag.String("token", "", "admin token")
	flag.Parse()

	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "qctl: need a subcommand: status, devices, jobs, op <name>, metrics, trace [job-id]")
		os.Exit(2)
	}
	if err := run(*endpoint, *token, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "qctl:", err)
		os.Exit(1)
	}
}

func run(endpoint, token string, args []string) error {
	switch args[0] {
	case "status":
		return get(endpoint+"/admin/v1/status", token)
	case "devices":
		return devices(endpoint, os.Stdout)
	case "jobs":
		return jobs(endpoint, token, os.Stdout)
	case "metrics":
		return get(endpoint+"/metrics", "")
	case "op":
		if len(args) < 2 {
			return fmt.Errorf("op needs an operation name")
		}
		return post(endpoint+"/admin/v1/lowlevel/"+args[1], token)
	case "trace":
		if len(args) >= 2 {
			return traceJob(endpoint, args[1], os.Stdout)
		}
		return traceList(endpoint, os.Stdout)
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

// request performs one authenticated bodyless call and returns the response
// body, turning non-2xx statuses into errors — the shared core of every
// qctl fetch.
func request(method, url, token string) ([]byte, error) {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return nil, err
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 300 {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, body)
	}
	return body, nil
}

func do(method, url, token string) error {
	body, err := request(method, url, token)
	if err != nil {
		return err
	}
	fmt.Println(string(body))
	return nil
}

func get(url, token string) error  { return do(http.MethodGet, url, token) }
func post(url, token string) error { return do(http.MethodPost, url, token) }

// devices lists the fleet partitions with per-partition queue depth and
// utilization from /api/v1/devices, using a short-lived user session for the
// token-authenticated endpoint.
func devices(endpoint string, out io.Writer) error {
	token, err := openSession(endpoint, "qctl")
	if err != nil {
		return err
	}
	defer closeSession(endpoint, token)

	body, err := request(http.MethodGet, endpoint+"/api/v1/devices", token)
	if err != nil {
		return err
	}
	var listing struct {
		Router  string `json:"router"`
		Devices []struct {
			ID          string         `json:"id"`
			Status      string         `json:"status"`
			Utilization float64        `json:"utilization"`
			Queued      map[string]int `json:"queued"`
			Cache       *struct {
				Hits    uint64  `json:"hits"`
				Misses  uint64  `json:"misses"`
				Size    int     `json:"size"`
				HitRate float64 `json:"hit_rate"`
			} `json:"cache"`
		} `json:"devices"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		return fmt.Errorf("parsing device listing: %w", err)
	}
	fmt.Fprintf(out, "fleet: %d partition(s), %s routing\n", len(listing.Devices), listing.Router)
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "DEVICE\tSTATUS\tUTIL\tQUEUED(prod/test/dev)\tCACHE")
	for _, d := range listing.Devices {
		// The cache column reads "hit-rate% (warm entries)"; "-" when the
		// daemon runs without a program cache.
		cache := "-"
		if d.Cache != nil {
			cache = fmt.Sprintf("%.0f%% (%d)", d.Cache.HitRate*100, d.Cache.Size)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.1f%%\t%d/%d/%d\t%s\n",
			d.ID, d.Status, d.Utilization*100,
			d.Queued["production"], d.Queued["test"], d.Queued["dev"], cache)
	}
	return tw.Flush()
}

// jobs renders the admin job listing as a table, newest first. Rejected jobs
// carry the admission policy's rationale; failed jobs carry their error.
func jobs(endpoint, token string, out io.Writer) error {
	body, err := request(http.MethodGet, endpoint+"/admin/v1/jobs", token)
	if err != nil {
		return err
	}
	var listing []struct {
		ID                string  `json:"id"`
		User              string  `json:"user"`
		Class             string  `json:"class"`
		State             string  `json:"state"`
		Device            string  `json:"device"`
		Error             string  `json:"error"`
		AdmissionReason   string  `json:"admission_reason"`
		RetryAfterSeconds float64 `json:"retry_after_seconds"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		return fmt.Errorf("parsing job listing: %w", err)
	}
	fmt.Fprintf(out, "jobs: %d\n", len(listing))
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "JOB\tUSER\tCLASS\tSTATE\tDEVICE\tDETAIL")
	for _, j := range listing {
		detail := j.Error
		if j.State == "rejected" {
			detail = j.AdmissionReason
			if j.RetryAfterSeconds > 0 {
				detail = fmt.Sprintf("%s (retry after %.0fs)", detail, j.RetryAfterSeconds)
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n", j.ID, j.User, j.Class, j.State, orDash(j.Device), detail)
	}
	return tw.Flush()
}

// traceJob renders one job's trace from the flight recorder as a stage
// waterfall: per stage, the simulation-time offset it began at, how long it
// took, and the policy annotation.
func traceJob(endpoint, id string, out io.Writer) error {
	token, err := openSession(endpoint, "qctl")
	if err != nil {
		return err
	}
	defer closeSession(endpoint, token)
	body, err := request(http.MethodGet, endpoint+"/api/v1/trace/"+id, token)
	if err != nil {
		return err
	}
	var t trace.JobTrace
	if err := json.Unmarshal(body, &t); err != nil {
		return fmt.Errorf("parsing trace: %w", err)
	}
	state := t.State
	if state == "" {
		state = "live"
	}
	fmt.Fprintf(out, "trace %s: class %s, device %s, %s\n", t.Job, t.Class, orDash(t.Device), state)
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "STAGE\tAT\tDUR\tDEVICE\tDETAIL")
	for _, s := range t.Spans {
		fmt.Fprintf(tw, "%s\t+%s\t%s\t%s\t%s\n",
			s.Stage, s.Start, s.End-s.Start, orDash(s.Device), s.Detail)
	}
	return tw.Flush()
}

// traceList summarizes every trace the flight recorder still holds.
func traceList(endpoint string, out io.Writer) error {
	token, err := openSession(endpoint, "qctl")
	if err != nil {
		return err
	}
	defer closeSession(endpoint, token)
	body, err := request(http.MethodGet, endpoint+"/api/v1/trace", token)
	if err != nil {
		return err
	}
	var listing struct {
		Live int              `json:"live"`
		Done int              `json:"done"`
		Jobs []trace.JobTrace `json:"jobs"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		return fmt.Errorf("parsing trace listing: %w", err)
	}
	fmt.Fprintf(out, "flight recorder: %d live, %d terminal\n", listing.Live, listing.Done)
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "JOB\tCLASS\tDEVICE\tSTATE\tSPANS")
	for _, t := range listing.Jobs {
		state := t.State
		if state == "" {
			state = "live"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d\n", t.Job, t.Class, orDash(t.Device), state, len(t.Spans))
	}
	return tw.Flush()
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// openSession creates a throwaway user session and returns its token.
func openSession(endpoint, user string) (string, error) {
	payload, _ := json.Marshal(map[string]string{"user": user})
	resp, err := http.Post(endpoint+"/api/v1/sessions", "application/json", bytes.NewReader(payload))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode >= 300 {
		return "", fmt.Errorf("opening session: HTTP %d: %s", resp.StatusCode, body)
	}
	var s struct {
		Token string `json:"token"`
	}
	if err := json.Unmarshal(body, &s); err != nil {
		return "", err
	}
	return s.Token, nil
}

// closeSession best-effort closes the throwaway session.
func closeSession(endpoint, token string) {
	req, err := http.NewRequest(http.MethodDelete, endpoint+"/api/v1/sessions", nil)
	if err != nil {
		return
	}
	req.Header.Set("Authorization", "Bearer "+token)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
}
