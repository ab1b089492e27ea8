package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"memsim/internal/harden"
)

// apiError is the typed error body every non-2xx response carries:
//
//	{"error": {"code": "invalid_config", "message": "...", "fields": [...]}}
//
// Code is a stable machine-readable discriminator; Fields carries the
// aggregated per-field violations of a config rejection.
type apiError struct {
	Code    string   `json:"code"`
	Message string   `json:"message"`
	Fields  []string `json:"fields,omitempty"`
}

// errorBody is the response envelope.
type errorBody struct {
	Error apiError `json:"error"`
}

// API error codes.
const (
	codeOversized     = "oversized_body"
	codeMalformedJSON = "malformed_json"
	codeWrongType     = "wrong_type"
	codeUnknownField  = "unknown_field"
	codeInvalidSpec   = "invalid_spec"
	codeInvalidConfig = "invalid_config"
	codeJobTooLarge   = "job_too_large"
	codeNotFound      = "not_found"
	codeNotReady      = "not_ready"
	codeConflict      = "conflict"
	codeOverloaded    = "overloaded"
	codeRateLimited   = "rate_limited"
	codeDraining      = "draining"
)

// decodeSpec reads and classifies a job submission body, converting
// every malformed-input shape — oversized, truncated, mistyped,
// unknown keys, trailing garbage — into a typed 4xx apiError instead
// of a generic 400 or, worse, a handler panic.
func decodeSpec(r io.Reader) (JobSpec, int, *apiError) {
	var spec JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		status, aerr := classifyDecodeError(err)
		return JobSpec{}, status, aerr
	}
	// A second document after the spec is as suspect as an unknown
	// field: reject rather than silently ignore.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return JobSpec{}, http.StatusBadRequest,
			&apiError{Code: codeMalformedJSON, Message: "request body holds more than one JSON document"}
	}
	// Type-check the raw config values so they fail like spec fields.
	if _, err := spec.settings(); err != nil {
		status, aerr := classifyDecodeError(err)
		return JobSpec{}, status, aerr
	}
	return spec, 0, nil
}

// classifyDecodeError maps a json.Decoder failure to status + apiError.
func classifyDecodeError(err error) (int, *apiError) {
	var (
		maxBytes *http.MaxBytesError
		typeErr  *json.UnmarshalTypeError
		synErr   *json.SyntaxError
	)
	switch {
	case errors.As(err, &maxBytes):
		return http.StatusRequestEntityTooLarge, &apiError{
			Code:    codeOversized,
			Message: fmt.Sprintf("request body exceeds %d bytes", maxBytes.Limit),
		}
	case errors.As(err, &typeErr):
		return http.StatusBadRequest, &apiError{
			Code:    codeWrongType,
			Message: fmt.Sprintf("field %q: cannot decode %s into %s", typeErr.Field, typeErr.Value, typeErr.Type),
			Fields:  []string{typeErr.Field},
		}
	case errors.As(err, &synErr):
		return http.StatusBadRequest, &apiError{
			Code:    codeMalformedJSON,
			Message: fmt.Sprintf("invalid JSON at offset %d: %v", synErr.Offset, synErr),
		}
	case errors.Is(err, io.ErrUnexpectedEOF), errors.Is(err, io.EOF):
		return http.StatusBadRequest, &apiError{
			Code:    codeMalformedJSON,
			Message: "request body is empty or truncated",
		}
	case strings.Contains(err.Error(), "unknown field"):
		return http.StatusBadRequest, &apiError{
			Code:    codeUnknownField,
			Message: err.Error(),
		}
	default:
		return http.StatusBadRequest, &apiError{
			Code:    codeMalformedJSON,
			Message: err.Error(),
		}
	}
}

// configAPIError renders a BuildConfig failure: an aggregated
// *harden.ConfigError lists every offending field; anything else (an
// unknown preset) is a spec-shape problem.
func configAPIError(err error) (int, *apiError) {
	var ce *harden.ConfigError
	if errors.As(err, &ce) {
		fields := make([]string, len(ce.Fields))
		for i, f := range ce.Fields {
			fields[i] = f.Field
		}
		return http.StatusUnprocessableEntity, &apiError{
			Code:    codeInvalidConfig,
			Message: err.Error(),
			Fields:  fields,
		}
	}
	return http.StatusBadRequest, &apiError{Code: codeInvalidSpec, Message: err.Error()}
}
