/**
 * @file
 * ShadowOracle: a volatile std::map mirror of one persistent KV
 * structure, used to audit the structure after every injected crash.
 *
 * The torture drivers apply each operation to both the structure and
 * the shadow — the shadow only once the operation is known committed
 * (an interrupted operation is resolved after recovery by probing the
 * structure: all-or-nothing is the contract, a torn value is a bug).
 * verify() then checks:
 *
 *  - every shadow key is present with exactly the shadow's value;
 *  - probe keys outside the shadow are absent;
 *  - the structure's own invariant checker passes (tree ordering /
 *    balance via KvStructure::selfCheck);
 *  - no probe panics: a CNVM_CHECK failure or fatal() inside the
 *    structure (cyclic list, torn header) is reported as a finding,
 *    not a test crash.
 */
#ifndef CNVM_TESTING_ORACLE_H
#define CNVM_TESTING_ORACLE_H

#include <cstdint>
#include <map>
#include <string>

#include "structures/kv.h"

namespace cnvm::torture {

/** One single-key operation of a torture history. */
struct Op {
    enum Kind : uint8_t { insert, remove, lookup };
    Kind kind = insert;
    std::string key;
    std::string val;  ///< inserts only

    /** Run an insert or remove on `kv`; a lookup changes nothing. */
    void applyTo(ds::KvStructure& kv) const;
};

class ShadowOracle {
 public:
    /** Mirror a committed op (a lookup changes nothing). */
    void note(const Op& op);

    bool
    contains(const std::string& key) const
    {
        return shadow_.count(key) != 0;
    }

    /** Shadow value; empty string if absent. */
    std::string
    valueOf(const std::string& key) const
    {
        auto it = shadow_.find(key);
        return it == shadow_.end() ? std::string() : it->second;
    }

    size_t size() const { return shadow_.size(); }

    const std::map<std::string, std::string>&
    entries() const
    {
        return shadow_;
    }

    /**
     * Full audit of `kv` against the shadow.
     * @return empty string on success, else a description of the
     *         first violation found.
     */
    std::string verify(ds::KvStructure& kv) const;

 private:
    std::map<std::string, std::string> shadow_;
};

}  // namespace cnvm::torture

#endif  // CNVM_TESTING_ORACLE_H
