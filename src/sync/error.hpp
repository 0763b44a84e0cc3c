// ProtocolError: the one exception type every sync-layer component
// (Reconciler backends, v2 SyncEngine framing, the net transport) throws on
// malformed, out-of-order, or mis-negotiated input. Carrying a specific
// message is part of the contract: tests assert on the text, and operators
// triage peer failures from it.
#pragma once

#include <stdexcept>

namespace ribltx::sync {

class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

}  // namespace ribltx::sync
