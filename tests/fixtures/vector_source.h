/**
 * @file
 * Test fixture: an EventSource over an in-memory vector of tuples, for
 * hand-crafted streams with known answers.
 */

#ifndef MHP_TESTS_FIXTURES_VECTOR_SOURCE_H
#define MHP_TESTS_FIXTURES_VECTOR_SOURCE_H

#include <string>
#include <vector>

#include "trace/source.h"

namespace mhp {

/** Finite event source backed by a std::vector. */
class VectorSource : public EventSource
{
  public:
    /**
     * @param tuples The stream, replayed in order.
     * @param kind What the tuples represent.
     * @param name Stream identifier for reports.
     */
    VectorSource(std::vector<Tuple> tuples,
                 ProfileKind kind = ProfileKind::Value,
                 std::string name = "vector");

    Tuple next() override;
    bool done() const override { return pos >= tuples.size(); }
    ProfileKind kind() const override { return profileKind; }
    std::string name() const override { return sourceName; }

    /** Rewind to the beginning of the stream. */
    void reset() { pos = 0; }

    size_t size() const { return tuples.size(); }

  private:
    std::vector<Tuple> tuples;
    ProfileKind profileKind;
    std::string sourceName;
    size_t pos = 0;
};

} // namespace mhp

#endif // MHP_TESTS_FIXTURES_VECTOR_SOURCE_H
